"""Hilbert transform on the line, Hardy projections, and the scale/shift
(``ax+b``) group acting on sampled signals.

Conventions fixed here (and relied on by the symmetry engine):

* Operators act as multipliers of the grid DFT (``np.fft.fft``).  The
  calibrated pair :func:`~.signals.dft`/:func:`~.signals.idft` is read by
  Parseval, the intertwining defect and the half-line action; its per-bin
  factors are reciprocal, so no multiplier needs it.
* The Hilbert multiplier is -i*s with s = :func:`~.signals.sign_symbol` of
  the grid's signed indices: sgn(xi), zero on the mean bin and on the shared
  even-n extreme bin ("Nyquist").  That keeps the operator real-preserving
  and makes H^2 = -I hold exactly off those bins.
* Hardy projections are (1/2)(I +- iH) = (1/2)(1 +- s) exactly, so the mean
  and Nyquist bins are split half-and-half between the two parts.
* Dilation resamples the spectrum (bandlimited interpolation); it refuses,
  rather than silently wraps, inputs whose content would alias.

Every operator here acts along the last axis, so a signal carrying a batch
of P probes as values of shape (P, n) is processed in one call; a guard or
warning trips for the batch when it trips for any row.  Each output carries
its input's flags, then each warning flag it raises that the input lacks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .signals import LineSignal, _frozen_complex_array, dft, sign_symbol

__all__ = [
    "AffineElement",
    "HalfLineSignal",
    "AliasingError",
    "hilbert_multiplier",
    "hilbert_pv_quadrature",
    "hardy_project",
    "dilate",
    "translate",
    "group_compose",
    "group_inverse",
    "rep_natural",
    "rep_fourier_side",
    "intertwine_defect",
]

EDGE_DECAY_TOL = 1e-8
ALIAS_GUARD_TOL = 1e-8


class AliasingError(ValueError):
    """Raised when a dilation would alias spectral mass or push support off
    the grid; the message names the offending mass fraction."""


@dataclass(frozen=True)
class AffineElement:
    """Group element (a, b), acting on the line as x -> a*x + b, a > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError("scale a must be positive and finite")
        if not math.isfinite(self.b):
            raise ValueError("shift b must be finite")


def group_compose(g1: AffineElement, g2: AffineElement) -> AffineElement:
    """(a, b)(a', b') = (a a', b + a b')."""
    return AffineElement(g1.a * g2.a, g1.b + g1.a * g2.b)


def group_inverse(g: AffineElement) -> AffineElement:
    """(a, b)^-1 = (1/a, -b/a)."""
    return AffineElement(1.0 / g.a, -g.b / g.a)


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= target: the complex FFT sizes that
    pocketfft (numpy's and scipy's FFT backend) transforms fastest."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=32)
def _pv_kernel_fft(n: int) -> np.ndarray:
    """FFT of the principal-value kernel 1/(pi m), m = +-1..+-(n-1), laid out
    circularly on a padded length >= 2n-1 so that the circular convolution
    of an n-sample input equals the linear one on the n outputs kept."""
    m = np.arange(1, n)
    kern = np.zeros(_next_fast_len(2 * n - 1))
    kern[m] = 1.0 / (np.pi * m)
    kern[-m] = -1.0 / (np.pi * m)
    kern_fft = np.fft.fft(kern)
    kern_fft.setflags(write=False)
    return kern_fft


def _carry(f: LineSignal, out: LineSignal, new=()) -> LineSignal:
    """``out`` with the flags of ``f``, then each flag of ``new`` that ``f``
    lacks; ``out`` itself when that leaves no flag."""
    flags = f.flags + tuple(flag for flag in new if flag not in f.flags)
    return LineSignal(out.grid, out.values, flags) if flags else out


def _multiply(f: LineSignal, symbol, new=()) -> LineSignal:
    """``f`` with ``symbol`` applied binwise to its grid DFT (wrap order)."""
    return _carry(f, LineSignal(f.grid, np.fft.ifft(symbol * np.fft.fft(f.values))), new)


def hilbert_multiplier(f: LineSignal) -> LineSignal:
    """Apply -i*sgn(xi) binwise on the spectrum (sgn(0) = 0, Nyquist bin 0)."""
    return _multiply(f, -1j * sign_symbol(f.grid.signed_indices()))


def _edge_test(v: np.ndarray) -> tuple:
    """Per row of ``v``: the peak modulus, the larger edge modulus, and whether
    that exceeds EDGE_DECAY_TOL of the peak (hilbert_pv_quadrature's regime)."""
    mag = np.abs(v)
    peak, edge = mag.max(axis=-1), np.maximum(mag[..., 0], mag[..., -1])
    return peak, edge, edge > EDGE_DECAY_TOL * peak


def hilbert_pv_quadrature(f: LineSignal) -> LineSignal:
    """Principal-value quadrature of (1/pi) * integral f(y)/(x-y) dy.

    The kernel sum excludes the singular node y = x and pairs the remaining
    nodes symmetrically about it, which realises the principal-value
    cancellation; the excluded node's removable value -f'(x) (the limit of
    the regularised integrand) enters through a central difference, giving an
    O(dx^2) interior error.  No endpoint weights are applied: the scheme's
    validity regime is signals that have decayed to EDGE_DECAY_TOL of their
    peak at the grid boundary, checked here and flagged "edge-decay".

    This path never touches the Fourier side, so it serves as an independent
    oracle for :func:`hilbert_multiplier`.
    """
    v = f.values
    n = f.grid.n
    new = ("edge-decay",) if np.any(_edge_test(v)[2]) else ()

    kern_fft = _pv_kernel_fft(n)
    out = np.fft.ifft(np.fft.fft(v, kern_fft.shape[0]) * kern_fft)[..., :n]
    out = out - np.gradient(v, f.grid.dx, axis=-1) * (f.grid.dx / np.pi)
    return _carry(f, LineSignal(f.grid, out), new)


def hardy_project(f: LineSignal, sign: str) -> LineSignal:
    """Boundary Hardy-space projection, (1/2)(f + i H f) for "+" and
    (1/2)(f - i H f) for "-".

    Equivalently a spectral mask keeping the positive (resp. negative)
    frequency bins, with the mean bin (and the even-n extreme bin) split
    half to each part; the two projections sum to the identity exactly.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    mult = sign_symbol(f.grid.signed_indices())
    return _multiply(f, 0.5 * (1.0 + mult) if sign == "+" else 0.5 * (1.0 - mult))


@functools.lru_cache(maxsize=32)
def _chirp_z_plan(n: int, a: float, kmin: int):
    """Bluestein plan for the n-point chirp z-transform along
    z_k = A * w^-k, w = exp(-2 pi i a / n), A = w^-kmin, i.e. the semidiscrete
    transform at the scaled bins a*(kmin + k) (Bluestein 1970; Rabiner,
    Schafer & Rader 1969).  The formulas are those of scipy.signal.CZT, with
    the powers w^(k^2/2) and A^-k taken as exponentials of the principal
    logarithms of w and A, one per entry rather than one complex power; the
    output agrees with scipy.signal.czt to 1e-13 relative to its peak."""
    w = np.exp(-2j * np.pi * a / n)
    A = 1.0 * w ** (-kmin)
    log_w, log_A = np.log(w), np.log(A)
    k = np.arange(n)
    wk2 = np.exp(k**2 / 2.0 * log_w)
    nfft = _next_fast_len(2 * n - 1)
    pre = np.exp(-k * log_A) * wk2
    kern_fft = np.fft.fft(1 / np.hstack((wk2[n - 1 : 0 : -1], wk2)), nfft)
    for arr in (pre, kern_fft, wk2):
        arr.setflags(write=False)
    return pre, kern_fft, wk2


def _chirp_z(x: np.ndarray, a: float, kmin: int) -> np.ndarray:
    n = x.shape[-1]
    pre, kern_fft, wk2 = _chirp_z_plan(n, a, kmin)
    y = np.fft.ifft(kern_fft * np.fft.fft(x * pre, kern_fft.shape[0]))
    return y[..., n - 1 : 2 * n - 1] * wk2


def _mass_fraction(energy: np.ndarray, mask: np.ndarray) -> float:
    """Largest row share of ``energy`` on the masked bins; zero rows count 0."""
    total = np.sum(energy, axis=-1)
    part = np.sum(energy[..., mask], axis=-1)
    return float(np.max(np.divide(part, total, out=np.zeros_like(total), where=total > 0.0)))


def _band_share(f: LineSignal, a: float) -> float:
    """Largest row share of the spectral energy of ``f`` beyond a*(n//2) bins
    from the mean: what a dilation by a < 1 pushes past the band."""
    energy = np.abs(np.fft.fft(f.values)) ** 2
    return _mass_fraction(energy, np.abs(f.grid.signed_indices()) > a * (f.grid.n // 2))


def dilate(f: LineSignal, a: float) -> LineSignal:
    """Unitary dilation (T_a f)(x) = a^(-1/2) f(x/a) by spectral resampling.

    The output spectrum is a^(1/2) s(a*xi_k), s the bandlimited interpolant
    of the input spectrum, sampled by a chirp z-transform of the samples and
    zeroed where |a*k| passes the band (s is periodic there: wrap-around, not
    data).  On the grid DFT, the calibration's ratio at a*xi_k and xi_k adds
    exp(-i (a-1) xi_k x_min), so f dilates about x = 0 on any window.  Two
    guards make the error regime explicit instead of silent wrap-around:

    * a < 1 stretches the spectrum; input energy at |xi| > a*xi_nyquist would
      land beyond the band.
    * a > 1 stretches the support; input energy outside the shrunk window
      [x_min/a, x_max/a] would leave the grid.

    Either guard trips an :class:`AliasingError` above ALIAS_GUARD_TOL, naming
    the energy fraction (for a batch, the largest row's); a = 1 returns ``f``.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("dilation scale must be positive and finite")
    if a == 1.0:
        return f

    g = f.grid
    if a < 1.0:
        frac = _band_share(f, a)
        if frac > ALIAS_GUARD_TOL:
            raise AliasingError(
                f"dilation by a={a} would alias a spectral mass fraction of "
                f"{frac:.3e} beyond the Nyquist frequency"
            )
    else:
        x = g.positions()
        lo, hi = g.x_min / a, (g.x_min + g.span) / a
        frac = _mass_fraction(np.abs(f.values) ** 2, (x < lo) | (x >= hi))
        if frac > ALIAS_GUARD_TOL:
            raise AliasingError(
                f"dilation by a={a} would push a mass fraction of {frac:.3e} "
                f"outside the grid"
            )

    ks = g.signed_indices()
    kmin = int(ks.min())
    spec = np.roll(_chirp_z(f.values, a, kmin), kmin, axis=-1)
    spec *= math.sqrt(a) * np.exp(-1j * (a - 1.0) * g.frequencies() * g.x_min)
    spec[..., np.abs(a * ks) > g.n // 2] = 0.0
    return _carry(f, LineSignal(g, np.fft.ifft(spec)))


def translate(f: LineSignal, b: float) -> LineSignal:
    """Shift (tau_b f)(x) = f(x - b) through the spectral phase ramp
    exp(-i xi b), taken at b mod n*dx (its period on the grid) so that it
    stays finite for any finite b.

    When b mod n*dx is an integer multiple of dx this is exactly the
    circular index shift, taken by ``np.roll`` with no transform; b = 0
    returns ``f`` itself.  Signals with an energy share above
    EDGE_DECAY_TOL in the band that wraps around the grid edge get an
    "edge-mass" warning flag.
    """
    if not math.isfinite(b):
        raise ValueError("shift must be finite")
    if b == 0.0:
        return f
    g = f.grid
    x = g.positions()
    edge = x >= g.x_min + g.span - b if b > 0 else x < g.x_min - b
    new = ("edge-mass",) if _mass_fraction(np.abs(f.values) ** 2, edge) > EDGE_DECAY_TOL else ()
    b = math.fmod(b, g.span)
    if (steps := b / g.dx).is_integer():
        return _carry(f, LineSignal(g, np.roll(f.values, int(steps), axis=-1)), new)
    return _multiply(f, np.exp(-1j * g.frequencies() * b), new)


def rep_natural(f: LineSignal, g: AffineElement) -> LineSignal:
    """Natural unitary action (pi(a,b) f)(x) = a^(-1/2) f((x-b)/a), realised
    as the shift applied after the dilation."""
    return translate(dilate(f, g.a), g.b)


@dataclass(frozen=True)
class HalfLineSignal:
    """Samples of a function supported on one half-line, one row per probe
    for values of shape (P, n).

    sign "+" places samples on (0, X] at x_j = (j+1)*dx; sign "-" on [-X, 0)
    at x_j = (j-n)*dx.  The function is taken as zero beyond the sampled
    range.
    """

    sign: str
    dx: float
    values: np.ndarray

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise ValueError("dx must be positive and finite")
        arr = _frozen_complex_array(self.values)
        if arr.shape[-1] < 2:
            raise ValueError("need at least two samples")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    def positions(self) -> np.ndarray:
        j = np.arange(self.n)
        return (j + 1) * self.dx if self.sign == "+" else (j - self.n) * self.dx


def _resample_halfline(g: HalfLineSignal, a: float) -> np.ndarray:
    """Values of g at a * (its own sample positions), zero outside the
    sampled range, by 4-point Lagrange interpolation on the sample lattice
    along the last axis (stencil nodes beyond the range read as zero, as the
    signal is taken).  Targets between the origin and the nearest sample
    (a < 1 only) read the cubic through the four samples nearest the origin.

    The targets are computed in index units, a(j+1)-1 on the "+" half and
    n+a(j-n) on the "-" half, so an integer a lands exactly on the nodes and
    the result is the plain index gather."""
    n = g.n
    j = np.arange(n)
    u = a * (j + 1) - 1 if g.sign == "+" else n + a * (j - n)
    # the origin sits at index -1 on the "+" half and at index n on the "-" half
    edge = (u > -1) & (u < 0) if g.sign == "+" else (u > n - 1) & (u < n)
    inside = (u >= 0) & (u <= n - 1) | edge
    u_in = np.clip(u, 0, n - 1)
    i = np.where(edge, 1 if g.sign == "+" else n - 3, np.floor(u_in).astype(int))
    t = np.where(edge, u, u_in) - i
    w = np.stack((
        -t * (t - 1) * (t - 2) / 6,
        (t + 1) * (t - 1) * (t - 2) / 2,
        -(t + 1) * t * (t - 2) / 2,
        (t + 1) * t * (t - 1) / 6,
    ), axis=-1)
    pad = np.zeros(g.values.shape[:-1] + (2,))
    padded = np.concatenate((pad, g.values, pad), axis=-1)
    # nodes i-1 .. i+2 sit at i+1 .. i+4 of the zero-padded samples; take
    # keeps the stencil axis innermost, so a batch sums in the order of a row
    vals = np.sum(w * np.take(padded, i[:, None] + np.arange(1, 5), axis=-1), axis=-1)
    return np.where(inside, vals, 0.0)


def rep_fourier_side(g: HalfLineSignal, a: float, b: float) -> HalfLineSignal:
    """Frequency-side action [pi_check(a,b) g](x) = a^(1/2) exp(i b x) g(a x).

    The half-line support is preserved by construction (a > 0); a batch of
    probes is resampled row by row.

    Sign convention: on each half-line of the spectrum (the "+" half read as
    the bins xi > 0 of :func:`dft`, with dx = dxi), F pi(a, b) f =
    pi_check(a, -b) F f for the natural action pi of :func:`rep_natural`.
    The two phase signs are related by the automorphism b -> -b.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("scale a must be positive and finite")
    vals = math.sqrt(a) * np.exp(1j * b * g.positions()) * _resample_halfline(g, a)
    return HalfLineSignal(g.sign, g.dx, vals)


def intertwine_defect(f: LineSignal, g: AffineElement) -> float:
    """Relative mismatch between transforming after the natural action and
    applying the frequency-side action to the transform:

        || dft(pi(a,b) f)  -  pi_check(a,-b) dft(f) || / ||f||

    pi_check is :func:`rep_fourier_side` on the n//2 bins xi > 0 and the
    n//2 bins xi < 0 of s = dft(f), and a^(1/2) s(0) on the mean bin.  On an
    even grid the shared extreme bin ends the first half and opens the
    second, as in the periodic spectrum; its output is the "+" half's.  The
    right-hand side never calls :func:`dilate`, so it is independent of the
    left at every a: integer a is the exact bin gather, and at non-integer a
    the defect includes the half-line resampler's interpolation error.  The
    phase sign exp(-i b xi) comes from the change of variables in the
    forward transform of a^(-1/2) f((x-b)/a) and is frozen by a unit test.
    Needs n >= 4.  For a batch of probes the largest row mismatch is
    returned.
    """
    grid = f.grid
    n = grid.n
    if n < 4:
        raise ValueError(f"intertwine_defect needs n >= 4 samples, got n={n}")
    half = n // 2
    s = dft(f).values
    plus, minus = (
        rep_fourier_side(HalfLineSignal(sign, grid.dxi, v), g.a, -g.b).values
        for sign, v in (("+", s[..., 1 : half + 1]), ("-", s[..., n - half :]))
    )
    # wrap order is the mean bin, the xi > 0 bins, then the xi < 0 bins
    rhs = np.concatenate((math.sqrt(g.a) * s[..., :1], plus, minus[..., 1 - n % 2 :]), axis=-1)
    lhs = dft(rep_natural(f, g)).values
    diff = math.sqrt(grid.dxi) * np.linalg.norm(lhs - rhs, axis=-1)
    return float(np.max(diff / (math.sqrt(grid.dx) * np.linalg.norm(f.values, axis=-1))))

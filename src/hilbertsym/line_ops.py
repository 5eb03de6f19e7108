"""Hilbert transform on the line, Hardy projections, and the scale/shift
(``ax+b``) group acting on sampled signals.

Conventions fixed here (and relied on by the symmetry engine):

* The multiplier form uses -i*sgn(xi) with sgn(0) = 0 and a zero multiplier
  on the shared even-n extreme bin ("Nyquist"), which keeps the operator
  real-preserving and makes H^2 = -I hold exactly off those bins.
* Hardy projections are (1/2)(I +- iH) exactly, so the mean and Nyquist bins
  are split half-and-half between the two parts.
* Dilation resamples the spectrum (bandlimited interpolation); it refuses,
  rather than silently wraps, inputs whose content would alias.

Every operator here acts along the last axis, so a signal carrying a batch
of P probes as values of shape (P, n) is processed in one call; a guard or
warning trips for the batch when it trips for any row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .signals import (
    Grid1D,
    LineSignal,
    LineSpectrum,
    dft,
    idft,
)

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


def _sign_multiplier(grid: Grid1D) -> np.ndarray:
    """sgn(xi) binwise in storage order, zero on the mean bin and on the
    even-n extreme bin; the one line sign symbol every multiplier derives
    from."""
    ks = grid.signed_indices()
    m = np.sign(ks).astype(complex)
    if grid.n % 2 == 0:
        m[grid.n // 2] = 0.0
    return m


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


def hilbert_multiplier(f: LineSignal) -> LineSignal:
    """Apply -i*sgn(xi) binwise on the spectrum (sgn(0) = 0, Nyquist bin 0)."""
    s = dft(f)
    return idft(s.with_values(-1j * _sign_multiplier(f.grid) * s.values))


def hilbert_pv_quadrature(f: LineSignal, *, edge_tol: float = EDGE_DECAY_TOL) -> LineSignal:
    """Principal-value quadrature of (1/pi) * integral f(y)/(x-y) dy.

    The kernel sum excludes the singular node y = x and pairs the remaining
    nodes symmetrically about it, which realises the principal-value
    cancellation; the excluded node's removable value -f'(x) (the limit of
    the regularised integrand) enters through a central difference, giving an
    O(dx^2) interior error.  No endpoint weights are applied: the scheme's
    validity regime is signals that have decayed to ~edge_tol at the grid
    boundary, checked here and reported as a warning flag, not an error.

    This path never touches the Fourier side, so it serves as an independent
    oracle for :func:`hilbert_multiplier`.
    """
    v = f.values
    n = f.grid.n
    peak = np.abs(v).max(axis=-1)
    edge = np.maximum(np.abs(v[..., 0]), np.abs(v[..., -1]))
    flags = f.flags
    if np.any((peak > 0) & (edge > edge_tol * peak)):
        flags = flags + ("edge-decay",)

    kern_fft = _pv_kernel_fft(n)
    out = np.fft.ifft(np.fft.fft(v, kern_fft.shape[0]) * kern_fft)[..., :n]
    out = out - np.gradient(v, f.grid.dx, axis=-1) * (f.grid.dx / np.pi)
    return LineSignal(f.grid, out, flags)


def hardy_project(f: LineSignal, sign: str) -> LineSignal:
    """Boundary Hardy-space projection, (1/2)(f + i H f) for "+" and
    (1/2)(f - i H f) for "-".

    Equivalently a spectral mask keeping the positive (resp. negative)
    frequency bins, with the mean bin (and the even-n extreme bin) split
    half to each part; the two projections sum to the identity exactly.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    s = dft(f)
    mult = _sign_multiplier(f.grid)
    mask = 0.5 * (1.0 + mult) if sign == "+" else 0.5 * (1.0 - mult)
    return idft(s.with_values(mask * s.values))


@functools.lru_cache(maxsize=32)
def _chirp_z_plan(n: int, a: float, kmin: int):
    """Bluestein plan for the n-point chirp z-transform along
    z_k = A * w^-k, w = exp(-2 pi i a / n), A = w^-kmin, i.e. the semidiscrete
    transform at the scaled bins a*(kmin + k) (Bluestein 1970; Rabiner,
    Schafer & Rader 1969).  The formulas are those of scipy.signal.CZT, so
    the output matches scipy.signal.czt to the last bit on numpy >= 2 (both
    run the same pocketfft)."""
    w = np.exp(-2j * np.pi * a / n)
    A = 1.0 * w ** (-kmin)
    k = np.arange(n)
    wk2 = w ** (k**2 / 2.0)
    nfft = _next_fast_len(2 * n - 1)
    pre = A**-k * wk2
    kern_fft = np.fft.fft(1 / np.hstack((wk2[n - 1 : 0 : -1], wk2)), nfft)
    for arr in (pre, kern_fft, wk2):
        arr.setflags(write=False)
    return pre, kern_fft, wk2


def _chirp_z(x: np.ndarray, a: float, kmin: int) -> np.ndarray:
    n = x.shape[-1]
    pre, kern_fft, wk2 = _chirp_z_plan(n, a, kmin)
    y = np.fft.ifft(kern_fft * np.fft.fft(x * pre, kern_fft.shape[0]))
    return y[..., n - 1 : 2 * n - 1] * wk2


def _semidiscrete_spectrum_scaled(f: LineSignal, a: float) -> np.ndarray:
    """Sample the semidiscrete transform of f at the scaled grid frequencies
    a*xi_k, in wrap order.  Bins with |a*k| beyond the representable band are
    zeroed: the semidiscrete transform is periodic in frequency, so those
    samples would be wrap-around artefacts rather than data."""
    g = f.grid
    n = g.n
    ks = g.signed_indices()
    kmin = int(ks.min())
    sorted_vals = _chirp_z(f.values, a, kmin)
    wrapped = np.roll(sorted_vals, kmin, axis=-1)
    xi = g.frequencies()
    s = (g.dx / math.sqrt(2.0 * math.pi)) * np.exp(-1j * a * xi * g.x_min) * wrapped
    s[..., np.abs(a * ks) > n // 2] = 0.0
    return s


def _mass_fraction(energy: np.ndarray, mask: np.ndarray) -> float:
    """Largest row share of ``energy`` on the masked bins; zero rows count 0."""
    total = np.sum(energy, axis=-1)
    part = np.sum(energy[..., mask], axis=-1)
    return float(np.max(np.divide(part, total, out=np.zeros_like(total), where=total > 0.0)))


def dilate(f: LineSignal, a: float, *, guard_tol: float = ALIAS_GUARD_TOL) -> LineSignal:
    """Unitary dilation (T_a f)(x) = a^(-1/2) f(x/a) by spectral resampling.

    The output spectrum is a^(1/2) s(a*xi_k) with s the bandlimited
    interpolant of the input spectrum.  Two guards make the error regime
    explicit instead of silent wrap-around:

    * a < 1 stretches the spectrum; input energy at |xi| > a*xi_nyquist would
      land beyond the band.
    * a > 1 stretches the support; input energy outside the shrunk window
      [x_min/a, x_max/a] would leave the grid.

    Either guard trips an :class:`AliasingError` naming the offending energy
    fraction (for a batch, the largest row fraction).
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("dilation scale must be positive and finite")
    if a == 1.0:
        return LineSignal(f.grid, f.values, f.flags)

    g = f.grid
    if a < 1.0:
        energy = np.abs(dft(f).values) ** 2
        ks = g.signed_indices()
        frac = _mass_fraction(energy, np.abs(ks) > a * (g.n // 2))
        if frac > guard_tol:
            raise AliasingError(
                f"dilation by a={a} would alias a spectral mass fraction of "
                f"{frac:.3e} beyond the Nyquist frequency"
            )
    else:
        x = g.positions()
        lo, hi = g.x_min / a, (g.x_min + g.span) / a
        frac = _mass_fraction(np.abs(f.values) ** 2, (x < lo) | (x >= hi))
        if frac > guard_tol:
            raise AliasingError(
                f"dilation by a={a} would push a mass fraction of {frac:.3e} "
                f"outside the grid"
            )

    spec = math.sqrt(a) * _semidiscrete_spectrum_scaled(f, a)
    return idft(LineSpectrum(g, spec))


def translate(f: LineSignal, b: float, *, edge_tol: float = EDGE_DECAY_TOL) -> LineSignal:
    """Shift (tau_b f)(x) = f(x - b) through the spectral phase ramp
    exp(-i xi b).

    For b an integer multiple of dx this is exactly the circular index shift;
    b = 0 returns the samples unchanged.  Signals with non-negligible energy
    in the band that wraps around the grid edge get an "edge-mass" warning
    flag.
    """
    if not math.isfinite(b):
        raise ValueError("shift must be finite")
    g = f.grid
    if b == 0.0:
        return LineSignal(g, f.values, f.flags)
    flags = f.flags
    x = g.positions()
    edge = x >= g.x_min + g.span - b if b > 0 else x < g.x_min - b
    if _mass_fraction(np.abs(f.values) ** 2, edge) > edge_tol:
        flags = flags + ("edge-mass",)
    s = dft(f)
    out = idft(s.with_values(s.values * np.exp(-1j * g.frequencies() * b)))
    return LineSignal(g, out.values, flags)


def rep_natural(f: LineSignal, g: AffineElement) -> LineSignal:
    """Natural unitary action (pi(a,b) f)(x) = a^(-1/2) f((x-b)/a), realised
    as the shift applied after the dilation."""
    return translate(dilate(f, g.a), g.b)


@dataclass(frozen=True)
class HalfLineSignal:
    """Samples of a function supported on one half-line.

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
        arr = np.array(self.values, dtype=complex)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise ValueError("need a 1-d array of at least two samples")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def positions(self) -> np.ndarray:
        j = np.arange(self.n)
        return (j + 1) * self.dx if self.sign == "+" else (j - self.n) * self.dx


def _resample_halfline(g: HalfLineSignal, a: float) -> np.ndarray:
    """Values of g at a * (its own sample positions), zero outside the
    sampled range.  Exact index gather for integer a; cubic spline otherwise."""
    x = g.positions()
    target = a * x
    if a == int(a):
        ai = int(a)
        j = np.arange(g.n)
        if g.sign == "+":
            idx = ai * (j + 1) - 1
        else:
            idx = g.n + ai * (j - g.n)
        vals = np.zeros(g.n, dtype=complex)
        ok = (idx >= 0) & (idx < g.n)
        vals[ok] = g.values[idx[ok]]
        return vals
    from scipy.interpolate import CubicSpline  # deferred: the only scipy use

    spline = CubicSpline(x, g.values, extrapolate=False)
    vals = spline(target)
    return np.where(np.isnan(vals), 0.0, vals)


def rep_fourier_side(
    g: HalfLineSignal, a: float, b: float, convention: str = "angular"
) -> HalfLineSignal:
    """Frequency-side action [pi_check(a,b) g](x) = a^(1/2) phase(b,x) g(a x).

    ``convention`` selects the phase: "angular" uses exp(i b x); "cyclic"
    uses exp(2 pi i b x).  The two differ by a rescaling of b and satisfy the
    same composition law; both are exposed because both normalisations are in
    circulation.  The half-line support is preserved by construction (a > 0).
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("scale a must be positive and finite")
    if convention not in ("angular", "cyclic"):
        raise ValueError("convention must be 'angular' or 'cyclic'")
    x = g.positions()
    phase = np.exp(1j * b * x) if convention == "angular" else np.exp(2j * np.pi * b * x)
    vals = math.sqrt(a) * phase * _resample_halfline(g, a)
    return HalfLineSignal(g.sign, g.dx, vals)


def intertwine_defect(f: LineSignal, g: AffineElement) -> float:
    """Relative mismatch between transforming after the natural action and
    applying the frequency-side multiplication-dilation form directly:

        || dft(pi(a,b) f)  -  a^(1/2) exp(-i b xi) s(a xi) || / ||f||

    with s = dft(f).  The phase sign exp(-i b xi) is the one produced by the
    change of variables in the forward transform of a^(-1/2) f((x-b)/a); it
    is frozen by a unit test.  For integer a the right-hand side is a pure
    bin gather, an independent code path from the dilation operator.  For a
    batch of probes the largest row mismatch is returned.
    """
    grid = f.grid
    lhs = dft(rep_natural(f, g)).values
    s = dft(f).values
    a, b = g.a, g.b
    n = grid.n
    ks = grid.signed_indices()
    if a == 1.0:
        scaled = s
    elif a == int(a):
        ak = int(a) * ks
        scaled = np.zeros_like(s)
        ok = np.abs(ak) <= n // 2
        scaled[..., ok] = s[..., ak[ok] % n]
    else:
        scaled = _semidiscrete_spectrum_scaled(f, a)
    rhs = math.sqrt(a) * np.exp(-1j * b * grid.frequencies()) * scaled
    diff = math.sqrt(grid.dxi) * np.linalg.norm(lhs - rhs, axis=-1)
    return float(np.max(diff / (math.sqrt(grid.dx) * np.linalg.norm(f.values, axis=-1))))

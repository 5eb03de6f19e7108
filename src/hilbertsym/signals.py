"""Sampled signals on the line and the circle, and the transforms between
sample and frequency domains.

Line signals live on a uniform grid; their spectra are calibrated so that a
bin holds (an approximation of) the continuum unitary Fourier transform at
that bin's frequency.  With that calibration the transform pair is unitary
between the weighted norms implemented by :func:`inner_product`, so isometry
statements can be asserted directly.

Circle signals are canonically two-sided Fourier coefficient vectors
``c_k, k = -K..K``; a sample-domain representation exists to host quadrature
oracles and off-grid evaluation.

Every signal type also holds a batch of P signals as values of shape
``(P, n)``: the last axis is the signal axis, and the transforms and
conversions here act along it row by row.  :func:`inner_product`,
:func:`norm` and ``CircleSignal.coeff`` take single (1-d) signals only.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)

__all__ = [
    "Grid1D",
    "LineSignal",
    "LineSpectrum",
    "CircleSignal",
    "CircleSamples",
    "dft",
    "idft",
    "inner_product",
    "norm",
    "stack_signals",
    "circle_samples_from_coeffs",
    "circle_coeffs_from_samples",
    "evaluate_fourier_series",
    "signed_indices",
    "sign_symbol",
]


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer argument: a numbers.Integral that is
    not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _frozen_complex_array(values, expected_len=None) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected values of shape (n,) or (P, n), got shape {arr.shape}")
    if expected_len is not None and arr.shape[-1] != expected_len:
        raise ValueError(
            f"value length {arr.shape[-1]} does not match declared length {expected_len}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("signal values must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def signed_indices(n: int) -> np.ndarray:
    """Signed bin index for each storage slot of an n-point spectrum.

    Storage uses the standard wrap-around FFT order; slot j carries signed
    index j for j <= n//2 and j-n beyond, i.e. k in [-ceil(n/2)+1, floor(n/2)].
    For even n the single shared extreme bin is reported as +n/2.
    """
    k = np.arange(n)
    k[k > n // 2] -= n
    return k


def sign_symbol(ks: np.ndarray) -> np.ndarray:
    """sgn(k) * [2|k| < N] over the signed indices ``ks`` of an N-element basis.

    The one sign rule every multiplier, mask and block of the package derives
    from.  It is zero on the mean bin and, on an even line grid, on the shared
    extreme bin k = N/2 (the "Nyquist" bin, which no sign can be given
    consistently); on the circle's k = -K..K, N = 2K+1, only k = 0 is zero.
    The blocks s > 0, s < 0 and s == 0 are those on which sgn is constant.
    """
    return np.sign(ks) * (2 * np.abs(ks) < ks.size)


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid x_j = x_min + j*dx, j = 0..n-1."""

    x_min: float
    n: int
    dx: float

    def __post_init__(self):
        if not _is_integer(self.n):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"grid needs at least two samples, got n={self.n}")
        if not (self.dx > 0.0) or not math.isfinite(self.dx):
            raise ValueError(f"grid spacing dx must be positive and finite, got {self.dx}")
        if not math.isfinite(self.x_min):
            raise ValueError(f"grid origin x_min must be finite, got {self.x_min}")

    @property
    def span(self) -> float:
        """Period of the implied discrete model, n*dx."""
        return self.n * self.dx

    @property
    def dxi(self) -> float:
        """Frequency spacing 2*pi/(n*dx)."""
        return 2.0 * math.pi / self.span

    def positions(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    def signed_indices(self) -> np.ndarray:
        return signed_indices(self.n)

    def frequencies(self) -> np.ndarray:
        """Frequencies xi_k = 2*pi*k/(n*dx) in storage (wrap-around) order."""
        return self.dxi * self.signed_indices()

    @classmethod
    def from_interval(cls, x_min: float, x_max: float, n: int) -> "Grid1D":
        """Half-open interval [x_min, x_max) sampled at n points."""
        if not x_max > x_min:
            raise ValueError("x_max must exceed x_min")
        return cls(x_min=x_min, n=n, dx=(x_max - x_min) / n)


@dataclass(frozen=True)
class LineSignal:
    """Complex samples of a finite-energy function on a :class:`Grid1D`.

    ``flags`` carries diagnostic warnings attached by producing operations
    (for example an edge-decay warning from the singular quadrature); it has
    no effect on any computation.
    """

    grid: Grid1D
    values: np.ndarray
    flags: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_complex_array(self.values, self.grid.n))
        object.__setattr__(self, "flags", tuple(self.flags))

    def with_values(self, values) -> "LineSignal":
        return LineSignal(self.grid, values, self.flags)


@dataclass(frozen=True)
class LineSpectrum:
    """Spectrum of a line signal, stored in wrap-around bin order.

    Bin j holds a sample at frequency ``grid.frequencies()[j]``; the signed
    index map is ``grid.signed_indices()`` and is part of the public contract
    (multiplier operators address bins through it).
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_complex_array(self.values, self.grid.n))

    def with_values(self, values) -> "LineSpectrum":
        return LineSpectrum(self.grid, values)


@dataclass(frozen=True)
class CircleSignal:
    """Two-sided Fourier coefficient vector c_k, k = -K..K (stored in k order)."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.coeffs)
        if arr.shape[-1] % 2 != 1:
            raise ValueError("coefficient vector must have odd length 2K+1")
        object.__setattr__(self, "coeffs", arr)

    @property
    def K(self) -> int:
        return (self.coeffs.shape[-1] - 1) // 2

    def indices(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.K:
            raise ValueError(f"index {k} outside truncation [-{self.K}, {self.K}]")
        return complex(self.coeffs[k + self.K])

    @classmethod
    def from_dict(cls, entries: dict, K: int) -> "CircleSignal":
        """Build from a sparse {k: value} mapping, zero elsewhere."""
        c = np.zeros(2 * K + 1, dtype=complex)
        for k, v in entries.items():
            if abs(k) > K:
                raise ValueError(f"index {k} outside truncation K={K}")
            c[k + K] = v
        return cls(c)

    def with_coeffs(self, coeffs) -> "CircleSignal":
        return CircleSignal(coeffs)

    def padded(self, K_new: int) -> "CircleSignal":
        """Zero-pad to a larger truncation degree."""
        if K_new < self.K:
            raise ValueError("padded() cannot shrink the truncation")
        c = np.zeros(self.coeffs.shape[:-1] + (2 * K_new + 1,), dtype=complex)
        c[..., K_new - self.K : K_new + self.K + 1] = self.coeffs
        return CircleSignal(c)


@dataclass(frozen=True)
class CircleSamples:
    """Samples at equispaced angles theta_j = 2*pi*j/n."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.values)
        if arr.shape[-1] < 1:
            raise ValueError("need at least one sample")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n) / self.n


@functools.lru_cache(maxsize=32)
def _calibration(g: Grid1D):
    """Per-grid factors of the transform pair: (dx/sqrt(2 pi)) exp(-i xi x_min)
    for :func:`dft` and exp(i xi x_min) for :func:`idft`."""
    xi = g.frequencies()
    forward = (g.dx / _SQRT_2PI) * np.exp(-1j * xi * g.x_min)
    inverse = np.exp(1j * xi * g.x_min)
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


def dft(f: LineSignal) -> LineSpectrum:
    """Forward transform, calibrated to the continuum unitary convention.

    Bin k approximates (1/sqrt(2 pi)) * integral f(x) exp(-i xi_k x) dx by the
    grid Riemann sum, so ``idft(dft(f)) == f`` exactly and Parseval holds
    between the weighted norms of :func:`inner_product`.
    """
    return LineSpectrum(f.grid, _calibration(f.grid)[0] * np.fft.fft(f.values))


def idft(s: LineSpectrum) -> LineSignal:
    g = s.grid
    vals = np.fft.ifft(s.values * _calibration(g)[1]) * (_SQRT_2PI / g.dx)
    return LineSignal(g, vals)


def _require_same_grid(a: Grid1D, b: Grid1D):
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


def _single(values: np.ndarray) -> np.ndarray:
    if values.ndim != 1:
        raise ValueError(f"expected a single signal, got a batch of shape {values.shape}")
    return values


def inner_product(f, g) -> complex:
    """Inner product <f, g>, conjugate-linear in the second argument, of two
    single (1-d) signals.

    Line signals: dx * sum f_j conj(g_j).  Line spectra: dxi-weighted sum.
    Circle samples: (1/n) sum.  Circle coefficients: plain sum.
    """
    if isinstance(f, LineSignal) and isinstance(g, LineSignal):
        _require_same_grid(f.grid, g.grid)
        return complex(f.grid.dx * np.vdot(_single(g.values), _single(f.values)))
    if isinstance(f, LineSpectrum) and isinstance(g, LineSpectrum):
        _require_same_grid(f.grid, g.grid)
        return complex(f.grid.dxi * np.vdot(_single(g.values), _single(f.values)))
    if isinstance(f, CircleSamples) and isinstance(g, CircleSamples):
        if f.n != g.n:
            raise ValueError(f"sample count mismatch: {f.n} vs {g.n}")
        return complex(np.vdot(_single(g.values), _single(f.values)) / f.n)
    if isinstance(f, CircleSignal) and isinstance(g, CircleSignal):
        if f.K != g.K:
            raise ValueError(f"truncation mismatch: K={f.K} vs K={g.K}")
        return complex(np.vdot(_single(g.coeffs), _single(f.coeffs)))
    raise ValueError(
        f"mismatched or unsupported operand types: {type(f).__name__}, {type(g).__name__}"
    )


def norm(f) -> float:
    return math.sqrt(max(inner_product(f, f).real, 0.0))


def stack_signals(sigs):
    """One batched signal with a row per input, from single line signals on
    one grid or single circle coefficient signals of one truncation."""
    first = sigs[0]
    if isinstance(first, LineSignal) and all(isinstance(f, LineSignal) for f in sigs):
        for f in sigs:
            _require_same_grid(first.grid, f.grid)
        return LineSignal(first.grid, np.stack([_single(f.values) for f in sigs]))
    if all(isinstance(c, CircleSignal) for c in sigs):
        # np.stack refuses coefficient rows of different truncations
        return CircleSignal(np.stack([_single(c.coeffs) for c in sigs]))
    raise ValueError("expected line signals or circle coefficient signals, not a mix")


def circle_samples_from_coeffs(c: CircleSignal, n: int) -> CircleSamples:
    """Evaluate the truncated series at n equispaced angles (lossless for
    n >= 2K+1)."""
    if not _is_integer(n):
        raise ValueError(f"sample count n must be an integer, got {n!r}")
    if n < 2 * c.K + 1:
        raise ValueError(f"need n >= 2K+1 = {2 * c.K + 1} samples, got {n}")
    arr = np.zeros(c.coeffs.shape[:-1] + (n,), dtype=complex)
    arr[..., c.indices() % n] = c.coeffs
    return CircleSamples(np.fft.ifft(arr) * n)


def circle_coeffs_from_samples(s: CircleSamples, K: int) -> CircleSignal:
    """Recover coefficients up to degree K (exact when the samples come from
    a trig polynomial of degree <= K and n >= 2K+1)."""
    if not _is_integer(K):
        raise ValueError(f"truncation K must be an integer, got {K!r}")
    if s.n < 2 * K + 1:
        raise ValueError(f"need n >= 2K+1 = {2 * K + 1} samples, got {s.n}")
    F = np.fft.fft(s.values) / s.n
    ks = np.arange(-K, K + 1)
    return CircleSignal(F[..., ks % s.n])


def _phase_table(theta: np.ndarray, start: int, step: int, m: int) -> np.ndarray:
    """exp(i theta (start + step*j)) for j < m, shape (len(theta), m).

    With j = s*h + l and s ~ sqrt(m), each entry is the product of
    exp(i theta (start + step*s*h)) and exp(i theta step*l), so only about
    2 sqrt(m) exponentials are taken per angle.  Each factor rounds its own
    argument once, so the phase error stays within that of the direct
    ``exp(1j * theta * k)`` plus the arguments' sum of moduli, rather than
    compounding as a chain of powers would."""
    s = math.isqrt(m - 1) + 1
    coarse = np.exp(1j * np.multiply.outer(theta, start + step * s * np.arange(-(-m // s))))
    fine = np.exp(1j * np.multiply.outer(theta, step * np.arange(s)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(theta.size, -1)[:, :m]


def evaluate_fourier_series(c: CircleSignal, angles: np.ndarray) -> np.ndarray:
    """Evaluate sum_k c_k exp(i k theta) at arbitrary angles (exact for the
    truncated series; used by off-grid actions and quadrature oracles).
    A batch of P series gives shape (P, len(angles)).

    The index is split as k + K = B*q + r with B ~ sqrt(2K+1), so that

        sum_k c_k e^{ik theta} = sum_q e^{i(Bq-K) theta} sum_r c_{Bq+r-K} e^{ir theta},

    which needs the two phase tables of :func:`_phase_table`, built once for
    every row, and one (n, B) x (B, P*Q) product instead of an (n, 2K+1)
    exponential matrix.
    """
    theta = np.asarray(angles, dtype=float).ravel()
    lead = c.coeffs.shape[:-1]
    size = c.coeffs.shape[-1]
    B = math.isqrt(size - 1) + 1
    Q = -(-size // B)
    blocks = np.zeros(lead + (B * Q,), dtype=complex)
    blocks[..., :size] = c.coeffs
    # (P*Q, B) rows of B consecutive coefficients, transposed for one product
    inner = _phase_table(theta, 0, 1, B) @ blocks.reshape(-1, B).T
    outer = _phase_table(theta, -c.K, B, Q)
    vals = np.einsum("nq,npq->pn", outer, inner.reshape(theta.size, -1, Q))
    return vals.reshape(lead + (theta.size,))

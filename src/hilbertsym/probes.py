"""Deterministic test-signal generators.

Three families:

* ``gaussian-packet`` -- modulated Gaussians on a line grid.  Smooth,
  decaying, and spectrally concentrated well inside the Nyquist band, so
  dilation by moderate factors stays inside the aliasing guard.  Each packet
  must pass two of line_ops' rules, or make_probes raises ValueError: the
  edge test of ``hilbert_pv_quadrature`` (edge samples within EDGE_DECAY_TOL
  of the peak) and the band share that ``dilate`` guards at a = 1/2 (at most
  ALIAS_GUARD_TOL of the spectral energy outside the central half of the
  band).
* ``random-bandlimited`` -- noise with spectrum confined to the central half
  of the frequency range (hard cutoff plus a Gaussian envelope) and zero
  mean/Nyquist bins.  No spatial decay is implied.
* ``trig-poly`` -- circle signals with random coefficients up to a given
  degree.

All families are deterministic for a fixed seed and are normalised to a
target norm drawn from [0.7, 1.5] (within the guaranteed [0.5, 2] band).
"""

from __future__ import annotations

import numpy as np

from .line_ops import ALIAS_GUARD_TOL, _band_share, _edge_test
from .signals import (
    CircleSignal, Grid1D, LineSignal, LineSpectrum, _is_integer, idft, norm, sign_symbol,
)

__all__ = ["make_probes"]

# the parameters each kind reads; make_probes rejects any other
_PARAMS = {
    "gaussian-packet": {"width", "center", "modulation", "real"},
    "random-bandlimited": set(),
    "trig-poly": {"degree", "real"},
}


def _range_pair(value, name):
    if np.isscalar(value):
        return float(value), float(value)
    lo, hi = value
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError(f"degenerate {name} range: {value!r}")
    return float(lo), float(hi)


def _check_line_guards(sig: LineSignal, kind: str):
    peak, edge, undecayed = _edge_test(sig.values)
    if peak == 0.0:
        raise ValueError(f"{kind} probe degenerated to zero")
    if undecayed:
        raise ValueError(
            f"degenerate {kind} params: probe does not decay at the grid edges "
            f"(edge/peak = {edge / peak:.2e})"
        )
    # the central half: the share a dilation by 1/2 would push past the band
    outer = _band_share(sig, 0.5)
    if outer > ALIAS_GUARD_TOL:
        raise ValueError(
            f"degenerate {kind} params: spectral mass outside the central half "
            f"of the band (fraction {outer:.2e})"
        )


def _gaussian_packets(grid, rng, count, width=(1.0, 1.5), center=(-3.0, 3.0),
                      modulation=(3.5, 6.0), real=False):
    w_lo, w_hi = _range_pair(width, "width")
    c_lo, c_hi = _range_pair(center, "center")
    m_lo, m_hi = _range_pair(modulation, "modulation")
    if w_lo <= 0:
        raise ValueError("widths must be positive")
    x = grid.positions()
    out = []
    for _ in range(count):
        w = rng.uniform(w_lo, w_hi)
        c = rng.uniform(c_lo, c_hi)
        # modulation range is a magnitude; the carrier sign is drawn separately
        nu = rng.uniform(m_lo, m_hi)
        if m_lo >= 0:
            nu *= rng.choice([-1.0, 1.0])
        env = np.exp(-((x - c) ** 2) / (2.0 * w * w))
        vals = env * np.cos(nu * (x - c)) if real else env * np.exp(1j * nu * x)
        sig = LineSignal(grid, vals)
        target = rng.uniform(0.7, 1.5)
        sig = sig.with_values(sig.values * (target / norm(sig)))
        _check_line_guards(sig, "gaussian-packet")
        out.append(sig)
    return out


def _random_bandlimited(grid, rng, count):
    ks = grid.signed_indices()
    n = grid.n
    cutoff = 0.5 * (n // 2)  # the central half of the band
    sigma = max(cutoff / 4.0, 1.0)
    out = []
    for _ in range(count):
        spec = rng.normal(size=n) + 1j * rng.normal(size=n)
        spec *= np.exp(-((ks / sigma) ** 2) / 2.0)
        spec[np.abs(ks) > cutoff] = 0.0
        spec[sign_symbol(ks) == 0] = 0.0  # the mean and Nyquist bins
        sig = idft(LineSpectrum(grid, spec))
        target = rng.uniform(0.7, 1.5)
        sig = sig.with_values(sig.values * (target / norm(sig)))
        out.append(sig)
    return out


def _trig_polys(K, rng, count, degree=None, real=False):
    degree = K if degree is None else degree
    if degree > K:
        raise ValueError(f"degree {degree} exceeds truncation K={K}")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    ks = np.arange(-K, K + 1)
    out = []
    for _ in range(count):
        c = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
        c[np.abs(ks) > degree] = 0.0
        if real:
            c = 0.5 * (c + np.conj(c[::-1]))
        sig = CircleSignal(c)
        target = rng.uniform(0.7, 1.5)
        sig = sig.with_coeffs(sig.coeffs * (target / norm(sig)))
        out.append(sig)
    return out


def make_probes(kind, *, seed, count, grid: Grid1D | None = None, K: int | None = None, **params):
    """Build a deterministic list of probe signals.

    Parameters depend on the kind: gaussian-packet takes ``width``, ``center``
    and ``modulation`` (scalars or (lo, hi) ranges, modulation taken as a
    magnitude range with random sign, plus ``real=True`` for cosine packets);
    random-bandlimited takes none; trig-poly takes ``degree`` (default K) and
    ``real``.  A parameter the kind does not read raises ValueError.
    """
    if not _is_integer(count):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError("count must be at least 1")
    if kind not in _PARAMS:
        raise ValueError(f"unknown probe kind {kind!r}")
    if unused := sorted(set(params) - _PARAMS[kind]):
        raise ValueError(f"{kind} probes do not read {', '.join(map(repr, unused))}")
    rng = np.random.default_rng(seed)
    if kind == "trig-poly":
        if K is None:
            raise ValueError("trig-poly probes need a truncation degree K")
        return _trig_polys(K, rng, count, **params)
    if grid is None:
        raise ValueError(f"{kind} probes need a grid")
    build = _gaussian_packets if kind == "gaussian-packet" else _random_bandlimited
    return build(grid, rng, count, **params)

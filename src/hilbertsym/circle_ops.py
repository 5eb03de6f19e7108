"""Circular Hilbert transform, singular Cauchy operators, the rational
dilation semigroup, the Moebius (disc automorphism) action, and the
convolution / zero-set machinery.

Everything that can be exact in coefficient space is implemented there; the
sample domain hosts the cotangent-kernel quadrature and the root-of-unity
averaging form of the semigroup, which serve as oracles for the coefficient
formulas.

Multiplier conventions (k is the Fourier index), all derived from the one
sign rule s = :func:`~.signals.sign_symbol` of k = -K..K, which on the
circle is sgn(k) with sgn(0) = 0:

* circular Hilbert: -i*s.  The k = 0 value is forced by the squared identity
  H~^2 = -I + H0 and by the odd-kernel principal value of a constant, and is
  adopted here.
* cauchy_symbol: s + delta_0, i.e. +1 for k >= 0 and -1 for k < 0 (the
  operator S with P+- = (1/2)(I +- S); equals i*H~ + H0).
* cauchy_pv: (1/2)(s + delta_0), the principal-value boundary integral;
  equals (i/2) H~ + (1/2) H0.
* plemelj_project: the masks s >= 0, s == 0, s < 0 and s > 0.

Two Cauchy-type operators are exposed because both conventions are used for
"the" singular Cauchy transform in the literature; their exact linear
relation is part of the contract.

The operators act along the last axis, so a batch of P signals stored as
values of shape (P, 2K+1) or (P, n) goes through one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .signals import (
    CircleSamples,
    CircleSignal,
    _is_integer,
    evaluate_fourier_series,
    sign_symbol,
)

__all__ = [
    "RationalScale",
    "MoebiusElement",
    "SignalFamily",
    "circular_hilbert",
    "circular_hilbert_quadrature",
    "mean_functional",
    "cauchy_pv",
    "cauchy_symbol",
    "plemelj_project",
    "semigroup_act",
    "semigroup_act_samples",
    "moebius_act",
    "circular_convolve",
    "zero_set",
    "annihilator_witness",
]


@dataclass(frozen=True)
class RationalScale:
    """Semigroup element alpha = q/p (in lowest terms) with rotation beta."""

    q: int
    p: int
    beta: float

    def __post_init__(self):
        if not (_is_integer(self.q) and _is_integer(self.p)):
            raise ValueError(f"q and p must be integers, got q={self.q!r}, p={self.p!r}")
        if self.q < 1 or self.p < 1:
            raise ValueError("q and p must be positive integers")
        if math.gcd(self.q, self.p) != 1:
            raise ValueError(f"q/p must be in lowest terms, got {self.q}/{self.p}")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")


@dataclass(frozen=True)
class MoebiusElement:
    """Disc automorphism z -> e^{i theta} (z - a)/(1 - a z), 0 <= a < 1."""

    theta: float
    a: float

    def __post_init__(self):
        if not (0.0 <= self.a < 1.0):
            raise ValueError(f"Blaschke parameter must lie in [0, 1), got {self.a}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


@dataclass(frozen=True)
class SignalFamily:
    """Non-empty family of circle signals with a common truncation degree."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family must be non-empty")
        K = members[0].K
        for m in members:
            if not isinstance(m, CircleSignal):
                raise ValueError("family members must be CircleSignal instances")
            if m.K != K:
                raise ValueError("family members must share one truncation degree")
        object.__setattr__(self, "members", members)

    @property
    def K(self) -> int:
        return self.members[0].K


def circular_hilbert(c: CircleSignal) -> CircleSignal:
    """c_k -> -i*sgn(k)*c_k with sgn(0) = 0."""
    return c.with_coeffs(-1j * sign_symbol(c.indices()) * c.coeffs)


def circular_hilbert_quadrature(s: CircleSamples) -> CircleSamples:
    """Principal-value trapezoid of (1/2pi) * integral f(e^{is}) cot((t-s)/2) ds.

    Requires an even sample count so the nodes pair symmetrically about the
    excluded singular node; the surviving sub-grid is the odd-offset one,
    giving the classical alternate-point rule

        (2/n) * sum_{m odd} cot(pi m / n) f(theta_{j-m}),

    which reproduces the -i*sgn(k) multiplier exactly for |k| < n/2.
    """
    n = s.n
    if n % 2 != 0:
        raise ValueError(f"need an even sample count for symmetric pairing, got {n}")
    m = np.arange(n)
    kern = np.zeros(n)
    odd = (m % 2) == 1
    kern[odd] = (2.0 / n) / np.tan(np.pi * m[odd] / n)
    out = np.fft.ifft(np.fft.fft(s.values) * np.fft.fft(kern))
    return CircleSamples(out)


def mean_functional(c: CircleSignal) -> complex:
    """The 0-th Fourier coefficient."""
    return c.coeff(0)


def cauchy_pv(c: CircleSignal) -> CircleSignal:
    """Principal-value singular Cauchy transform: multiplier +-1/2 (with +1/2
    at k = 0); identically (i/2)*circular_hilbert(c) + (1/2)*c_0."""
    return c.with_coeffs(0.5 * cauchy_symbol(c).coeffs)


def cauchy_symbol(c: CircleSignal) -> CircleSignal:
    """The +-1-symbol companion S = 2*cauchy_pv = i*H~ + H0; the operator for
    which (1/2)(I +- S) are the analytic/anti-analytic projections."""
    s = sign_symbol(c.indices())
    return c.with_coeffs((s + (s == 0)) * c.coeffs)


_PLEMELJ_PARTS = ("plus", "zero", "minus", "plus-tilde")


def plemelj_project(c: CircleSignal, part: str) -> CircleSignal:
    """Mask coefficients: plus keeps k >= 0, zero keeps k = 0, minus keeps
    k < 0, plus-tilde keeps k >= 1.  plus = zero + plus-tilde, and the three
    parts zero/plus-tilde/minus sum to the identity."""
    if part not in _PLEMELJ_PARTS:
        raise ValueError(f"part must be one of {_PLEMELJ_PARTS}, got {part!r}")
    s = sign_symbol(c.indices())
    mask = {"plus": s >= 0, "zero": s == 0, "minus": s < 0, "plus-tilde": s > 0}[part]
    return c.with_coeffs(np.where(mask, c.coeffs, 0.0))


def _required_k_out(c: CircleSignal, r: RationalScale) -> int:
    """Smallest output truncation that keeps every nonzero output coefficient."""
    ks = c.indices()
    populated = np.any(c.coeffs.reshape(-1, ks.size) != 0, axis=0)
    src = (ks % r.p == 0) & populated
    if not np.any(src):
        return 0
    smax = int(np.max(np.abs(ks[src]))) // r.p
    return r.q * smax


def semigroup_act(c: CircleSignal, r: RationalScale, k_out: Optional[int] = None) -> CircleSignal:
    """Coefficient form of the rational-dilation action pi(q/p, beta).

    Output index q*s carries (p/q)^(1/2) * exp(i p s beta) * c_{p s}; every
    other output index is zero.  Input indices not divisible by p are
    annihilated (the root-of-unity average kills them).  The default output
    truncation q*floor(K/p) is lossless; a caller-supplied k_out smaller than
    the largest populated output index is an error naming the required value.
    """
    K = c.K
    if k_out is None:  # lossless by construction: no populated index lies past it
        k_out = r.q * (K // r.p)
    elif k_out < (needed := _required_k_out(c, r)):
        raise ValueError(
            f"output truncation K'={k_out} loses nonzero coefficients; "
            f"required K'={needed}"
        )
    out = np.zeros(c.coeffs.shape[:-1] + (2 * k_out + 1,), dtype=complex)
    smax = min(K // r.p, k_out // r.q)
    if smax >= 0:
        s = np.arange(-smax, smax + 1)
        out[..., r.q * s + k_out] = (
            math.sqrt(r.p / r.q) * np.exp(1j * r.p * s * r.beta) * c.coeffs[..., r.p * s + K]
        )
    return CircleSignal(out)


def semigroup_act_samples(c: CircleSignal, r: RationalScale, n_samples: int) -> CircleSamples:
    """Sample-domain oracle for :func:`semigroup_act`: the root-of-unity
    average

        (p/q)^(1/2) (1/p) sum_{l=0}^{p-1} f(e^{i(q theta/p + beta)} omega_p^l)

    at theta_j = 2 pi j/n, n = n_samples, through the truncated series
    (exact on trig polynomials).  Every angle q theta_j/p + beta + 2 pi l/p
    is beta + 2 pi m/N with N = p*n and m = q*j + n*l, so the series is
    summed on that shifted uniform grid by one inverse FFT of the
    c_k exp(i k beta) folded onto k mod N (exact for any K, also when
    N < 2K+1), and the p values of each j are gathered from it and
    averaged.  That this matches the coefficient form is the
    well-definedness test of the averaging formula."""
    if not _is_integer(n_samples) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    N = r.p * n_samples
    ks = c.indices()
    folded = np.zeros(c.coeffs.shape[:-1] + (N,), dtype=complex)
    np.add.at(folded, (..., ks % N), c.coeffs * np.exp(1j * ks * r.beta))
    vals = np.fft.ifft(folded, norm="forward")
    m = (r.q * np.arange(n_samples) + n_samples * np.arange(r.p)[:, None]) % N
    return CircleSamples(math.sqrt(r.p / r.q) / r.p * vals[..., m].sum(axis=-2))


def moebius_act(s: CircleSamples, m: MoebiusElement, weight: str = "plain") -> CircleSamples:
    """Weighted composition with the inverse disc automorphism.

    Both variants evaluate f at phi^{-1}(t) = phi_a^{-1}(e^{-i theta} t) with
    phi_a^{-1}(w) = (w + a)/(1 + a w), through the truncated Fourier series
    of the samples (exact for trig polynomials).  They differ in the weight:

    * "plain":    sqrt(1-a^2) / (1 - a t)
    * "jacobian": sqrt(1-a^2) / (1 + a e^{-i theta} t), the analytic branch
      of |d phi^{-1}/dt|^(1/2)

    The jacobian weight is the unitary one; the other is kept so its norm and
    commutation defects can be measured and reported side by side.
    """
    if weight not in ("plain", "jacobian"):
        raise ValueError(f"weight must be 'plain' or 'jacobian', got {weight!r}")
    a = m.a
    t = np.exp(1j * s.angles())
    rotated = np.exp(-1j * m.theta) * t
    pre = (rotated + a) / (1.0 + a * rotated)
    # Coefficients k = -K..K, K = n//2: for even n the shared Nyquist bin is
    # split half-and-half between k = +-n/2, so no sampled mode is lost.
    K = s.n // 2
    coeffs = np.fft.fft(s.values)[..., np.arange(-K, K + 1) % s.n] / s.n
    if s.n % 2 == 0:
        coeffs[..., [0, -1]] *= 0.5
    vals = evaluate_fourier_series(CircleSignal(coeffs), np.angle(pre))
    if weight == "plain":
        wt = math.sqrt(1.0 - a * a) / (1.0 - a * t)
    else:
        wt = math.sqrt(1.0 - a * a) / (1.0 + a * rotated)
    return CircleSamples(wt * vals)


def circular_convolve(f: CircleSignal, g: CircleSignal) -> CircleSignal:
    """(f * g)_k = f_k g_k, the coefficient form of the normalised periodic
    convolution (1/2pi) integral f(e^{i(theta-s)}) g(e^{is}) ds."""
    if f.K != g.K:
        raise ValueError(f"truncation mismatch: K={f.K} vs K={g.K}")
    return f.with_coeffs(f.coeffs * g.coeffs)


# relative threshold below which a coefficient or a product counts as zero
_ZERO_TOL = 1e-12


def zero_set(fam: SignalFamily) -> set:
    """Indices at which every member vanishes.

    A member's coefficient counts as zero when |c_k| <= _ZERO_TOL * max|c| of
    that member (exact zeros always qualify; the relative threshold covers
    computed inputs).  An identically-zero member vanishes everywhere.
    """
    K = fam.K
    common = np.ones(2 * K + 1, dtype=bool)
    for member in fam.members:
        mags = np.abs(member.coeffs)
        common &= mags <= _ZERO_TOL * (mags.max() if mags.max() > 0 else 1.0)
    return {int(k) for k in np.arange(-K, K + 1)[common]}


def annihilator_witness(fam: SignalFamily, phi: CircleSignal) -> Optional[int]:
    """Convolution-annihilation test behind the empty-zero-set lemma.

    Requires zero_set(fam) to be empty (raised otherwise: the lemma's
    hypothesis fails).  If f * phi vanishes (to _ZERO_TOL, relative) for every
    member, returns None -- and checks that phi is then forced to vanish,
    coefficient by coefficient, which is exactly the lemma's mechanism.
    Otherwise returns an index k with f_k * phi_k != 0 as a counterexample
    witness (the k of largest violation; ties broken towards small |k|).
    """
    if phi.K != fam.K:
        raise ValueError(f"truncation mismatch: K={phi.K} vs K={fam.K}")
    z = zero_set(fam)
    if z:
        raise ValueError(
            f"zero set must be empty for the annihilation test, found {sorted(z)}"
        )
    K = fam.K
    ks = np.arange(-K, K + 1)
    stacked = np.stack([m.coeffs for m in fam.members])
    scale = float(np.abs(stacked).max() * np.abs(phi.coeffs).max())
    if scale == 0.0:
        return None
    conv = np.abs(stacked * phi.coeffs[None, :])
    worst = conv.max(axis=0)
    if np.all(worst <= _ZERO_TOL * scale):
        best = np.abs(stacked).max(axis=0)
        bound = _ZERO_TOL * scale / best
        if np.any(np.abs(phi.coeffs) > np.maximum(bound, _ZERO_TOL * np.abs(phi.coeffs).max())):
            raise RuntimeError(
                "convolutions vanish but phi does not; inconsistent with an "
                "empty zero set"
            )
        return None
    candidates = np.flatnonzero(worst > _ZERO_TOL * scale)
    order = sorted(candidates, key=lambda i: (-worst[i], abs(int(ks[i]))))
    return int(ks[order[0]])

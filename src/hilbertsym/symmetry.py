"""Commutant analysis engine.

Takes a dense operator matrix on a declared truncated basis and measures how
close it is to the commutant of the scale/shift actions: commutator defects
against supplied actions, least-squares scalar extraction on the invariant
blocks (two blocks on the line, three on the circle), a +-Hilbert classifier,
and the rotation/orbit scalarity analysis at finite truncation.

The engine never assumes the operator commutes or is bounded; every reported
scalar comes with a residual quantifying the distance from the scalar form.
Scalars are extracted by block-trace least squares (the Frobenius-optimal
constant on each block), which reduces to the exact block eigenvalues when
the operator truly lies in the commutant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import circle_ops, line_ops
from .circle_ops import RationalScale, semigroup_act
from .line_ops import AffineElement, rep_natural
from .signals import CircleSignal, Grid1D, LineSignal, signed_indices, stack_signals

__all__ = [
    "LineBasis",
    "FourierBasis",
    "OperatorMatrix",
    "ScalarDecomposition",
    "CommutatorReport",
    "RotationCommutantReport",
    "HilbertClassification",
    "apply_operator",
    "line_affine_action",
    "circle_semigroup_action",
    "commutator_defect",
    "decompose_line_operator",
    "decompose_circle_operator",
    "classify_pm_hilbert",
    "rotation_commutant_analysis",
    "synthesize_commuting_operator",
]


@dataclass(frozen=True)
class LineBasis:
    """Sample basis of a line grid (dim = n)."""

    n: int
    x_min: float
    dx: float

    def grid(self) -> Grid1D:
        return Grid1D(x_min=self.x_min, n=self.n, dx=self.dx)

    @property
    def dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class FourierBasis:
    """Circle coefficient basis e^{ik theta}, k = -K..K (dim = 2K+1)."""

    K: int

    @property
    def dim(self) -> int:
        return 2 * self.K + 1


Basis = Union[LineBasis, FourierBasis]


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix acting on a declared truncated basis."""

    basis: Basis
    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator entries must be square, got shape {arr.shape}")
        if arr.shape[0] != self.basis.dim:
            raise ValueError(
                f"dimension {arr.shape[0]} inconsistent with basis dim {self.basis.dim}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def apply_operator(T: OperatorMatrix, sig):
    """Apply the matrix to a signal living on the matching basis, along the
    last axis (each row of a (P, n) batch separately)."""
    if isinstance(sig, LineSignal):
        if not isinstance(T.basis, LineBasis) or T.basis.grid() != sig.grid:
            raise ValueError("operator basis does not match the signal grid")
        return LineSignal(sig.grid, sig.values @ T.entries.T)
    if isinstance(sig, CircleSignal):
        if not isinstance(T.basis, FourierBasis) or T.basis.K != sig.K:
            raise ValueError("operator basis does not match the signal truncation")
        return CircleSignal(sig.coeffs @ T.entries.T)
    raise ValueError(f"unsupported signal type {type(sig).__name__}")


def line_affine_action(g: AffineElement):
    """Labelled callable applying the natural scale/shift action."""
    return (f"affine(a={g.a:g}, b={g.b:g})", lambda f: rep_natural(f, g))


def circle_semigroup_action(r: RationalScale, K: int):
    """Labelled callable applying the rational-dilation action at fixed
    truncation (so operators and probes stay on one basis)."""
    label = f"semigroup(q={r.q}, p={r.p}, beta={r.beta:g})"
    return (label, lambda c: semigroup_act(c, r, k_out=K))


@dataclass(frozen=True)
class CommutatorReport:
    """Per-(action, probe) relative commutator defects."""

    defects: tuple  # of (action_label, probe_id, defect)

    @property
    def max_defect(self) -> float:
        return max((d for _, _, d in self.defects), default=0.0)


def commutator_defect(
    T: OperatorMatrix,
    actions: Sequence[tuple],
    probes: Sequence,
) -> CommutatorReport:
    """Measure ||T(g f) - g(T f)|| / ||f|| for every action and probe.

    The probes (line signals on one grid, or circle signals of one
    truncation) are stacked into one (P, n) batch, and each action is called
    twice, on the batch and on T applied to it: an action must act along the
    last axis, as :func:`line_affine_action` and :func:`circle_semigroup_action`
    do.

    Results are deterministic and order-independent: each record is keyed by
    the action label and probe index, and the evaluation is a pure function
    of (T, action, probe).
    """
    if not probes:
        return CommutatorReport(())
    batch = stack_signals(probes)
    probe_norms = np.linalg.norm(_values(batch), axis=-1)
    if not np.all(probe_norms > 0.0):
        raise ValueError("probes must be nonzero")
    t_batch = apply_operator(T, batch)
    records = []
    for label, act in actions:
        diff = _values(apply_operator(T, act(batch))) - _values(act(t_batch))
        defects = np.linalg.norm(diff, axis=-1) / probe_norms
        records.extend((label, pid, float(d)) for pid, d in enumerate(defects))
    return CommutatorReport(tuple(records))


def _values(sig) -> np.ndarray:
    return sig.values if isinstance(sig, LineSignal) else sig.coeffs


@dataclass(frozen=True)
class ScalarDecomposition:
    """Block scalars of an operator and the residual distance to the scalar
    form.

    On the line: k1 and k2 are the Frobenius-optimal scalars on the positive
    and negative frequency blocks, lam = (k2+k1)/2 and eta = (k2-k1)/(2i)
    reconstruct the operator as lam*I + eta*H, and residual_zero carries the
    defect of the mean/Nyquist rows (where H vanishes and the scalar form
    forces the value lam).

    On the circle the three scalars (k1, k0, k2) on the blocks k >= 1, k = 0,
    k <= -1 are reported directly as (lam, eta, omega), in that order.

    Residuals are Frobenius norms of the defect rows relative to ||T||_F, so
    ||T - reconstruction||_F = ||T||_F * sqrt(sum of squared residuals).
    """

    space: str
    k1: complex
    k2: complex
    k0: Optional[complex]
    lam: complex
    eta: complex
    omega: Optional[complex]
    residual_plus: float
    residual_minus: float
    residual_zero: Optional[float]

    @property
    def max_residual(self) -> float:
        parts = [self.residual_plus, self.residual_minus]
        if self.residual_zero is not None:
            parts.append(self.residual_zero)
        return max(parts)

    def to_json_dict(self) -> dict:
        def c2(z):
            return None if z is None else [float(np.real(z)), float(np.imag(z))]

        return {
            "space": self.space,
            "k1": c2(self.k1),
            "k2": c2(self.k2),
            "k0": c2(self.k0),
            "lambda": c2(self.lam),
            "eta": c2(self.eta),
            "omega": c2(self.omega),
            "residuals": {
                "plus": self.residual_plus,
                "minus": self.residual_minus,
                "zero": self.residual_zero,
            },
        }


def _line_spectral_conjugate(entries: np.ndarray) -> np.ndarray:
    """Similarity transform of a sample-basis matrix into the spectral basis,
    returned as a fresh array the caller owns.

    Conjugation by the unitary DFT; the calibration prefactor of the public
    transform is a constant-modulus diagonal and drops out of every quantity
    used here (diagonal entries and mask-row Frobenius norms).  The second
    transform runs in place on the first one's output.
    """
    tilde = np.fft.ifft(entries, axis=1)
    return np.fft.fft(tilde, axis=0, out=tilde)


def _line_masks(n: int):
    ks = signed_indices(n)
    if n % 2 == 0:
        zero = (ks == 0) | (ks == n // 2)
    else:
        zero = ks == 0
    plus = (ks >= 1) & ~zero
    minus = ks <= -1
    return plus, minus, zero


def _masked_row_residual(defect: np.ndarray, mask: np.ndarray, tnorm: float) -> float:
    if tnorm == 0.0:
        return 0.0
    return float(np.linalg.norm(defect[mask, :]) / tnorm)


def _row_sq_norms(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each row of a C-contiguous complex matrix,
    read through its float view without a temporary."""
    v = m.view(float)
    return np.einsum("ij,ij->i", v, v)


def decompose_line_operator(T: OperatorMatrix) -> ScalarDecomposition:
    """Extract the lam*I + eta*H form of a line-basis operator.

    No commutation is assumed; the residuals quantify how far the operator
    is from the scalar-on-Hardy-blocks shape that commuting with the full
    scale/shift action forces.
    """
    if not isinstance(T.basis, LineBasis):
        raise ValueError("line decomposition needs an operator on a line basis")
    return _decompose_line_spectral(_line_spectral_conjugate(T.entries), T)


def _decompose_line_spectral(tilde: np.ndarray, T: OperatorMatrix) -> ScalarDecomposition:
    """The line decomposition from ``tilde``, the spectral conjugate of T.

    Consumes ``tilde``: the reconstruction is subtracted from its diagonal in
    place, so its rows become the defect rows, whose squared norms are taken
    once and summed per block.
    """
    n = T.dim
    plus, minus, zero = _line_masks(n)
    if plus.sum() == 0 or minus.sum() == 0:
        raise ValueError(f"degenerate basis: no nontrivial frequency blocks at n={n}")
    diag = np.diagonal(tilde)
    k1 = complex(diag[plus].mean())
    k2 = complex(diag[minus].mean())
    lam = (k2 + k1) / 2.0
    eta = (k2 - k1) / 2.0j
    recon = np.empty(n, dtype=complex)
    recon[plus] = k1
    recon[minus] = k2
    recon[zero] = lam
    tilde.reshape(-1)[:: n + 1] -= recon  # the diagonal, as a strided view
    rows = _row_sq_norms(tilde)
    tnorm = float(np.linalg.norm(T.entries))

    def residual(mask):
        return 0.0 if tnorm == 0.0 else math.sqrt(float(rows[mask].sum())) / tnorm

    return ScalarDecomposition(
        space="line",
        k1=k1,
        k2=k2,
        k0=None,
        lam=lam,
        eta=eta,
        omega=None,
        residual_plus=residual(plus),
        residual_minus=residual(minus),
        residual_zero=residual(zero),
    )


def decompose_circle_operator(T: OperatorMatrix) -> ScalarDecomposition:
    """Extract the three block scalars (on k >= 1, k = 0, k <= -1) of a
    circle-basis operator, reported as (lam, eta, omega) in that order."""
    if not isinstance(T.basis, FourierBasis):
        raise ValueError("circle decomposition needs an operator on a fourier basis")
    K = T.basis.K
    if K < 1:
        raise ValueError("need K >= 1 so the plus/minus blocks are non-empty")
    ks = np.arange(-K, K + 1)
    plus = ks >= 1
    zero = ks == 0
    minus = ks <= -1
    diag = np.diagonal(T.entries)
    k1 = complex(diag[plus].mean())
    k0 = complex(diag[zero][0])
    k2 = complex(diag[minus].mean())
    recon = np.zeros(T.dim, dtype=complex)
    recon[plus] = k1
    recon[zero] = k0
    recon[minus] = k2
    defect = T.entries - np.diag(recon)
    tnorm = float(np.linalg.norm(T.entries))
    return ScalarDecomposition(
        space="circle",
        k1=k1,
        k2=k2,
        k0=k0,
        lam=k1,
        eta=k0,
        omega=k2,
        residual_plus=_masked_row_residual(defect, plus, tnorm),
        residual_minus=_masked_row_residual(defect, minus, tnorm),
        residual_zero=_masked_row_residual(defect, zero, tnorm),
    )


@dataclass(frozen=True)
class HilbertClassification:
    verdict: str  # "plus-H" | "minus-H" | "neither"
    reason: Optional[str] = None


def _conjugation_defect(T: OperatorMatrix) -> float:
    """Deviation from commuting with the real structure (conjugation of
    samples on the line; c_{-k} -> conj(c_k) pairing on coefficients)."""
    E = T.entries
    tnorm = np.linalg.norm(E)
    if tnorm == 0.0:
        return 0.0
    if isinstance(T.basis, LineBasis):
        return float(np.linalg.norm(E.imag) / tnorm)
    return float(np.linalg.norm(np.conj(E[::-1, ::-1]) - E) / tnorm)


def classify_pm_hilbert(T: OperatorMatrix, tol: float = 1e-8) -> HilbertClassification:
    """Decide whether T is the Hilbert transform, its negative, or neither.

    Checks, in order and each to ``tol``: (i) real (conjugation-equivariant),
    (ii) anti-symmetric, (iii) norm-preserving on the orthocomplement of its
    kernel block.  A candidate passing all three is decomposed; the verdict
    follows the sign of Im(k1) (k1 = -i means plus-H) provided the scalar
    residuals are small.  The first failed property is returned as the
    reason.
    """
    E = T.entries
    tnorm = np.linalg.norm(E)
    if tnorm == 0.0:
        return HilbertClassification("neither", "operator is zero")

    d = _conjugation_defect(T)
    if d > tol:
        return HilbertClassification("neither", f"not a real operator (defect {d:.2e})")

    d = float(np.linalg.norm(E + E.conj().T) / tnorm)
    if d > tol:
        return HilbertClassification("neither", f"not anti-symmetric (defect {d:.2e})")

    # the kernel block (mean/Nyquist-type modes) is axis-aligned in the
    # frequency basis, so run the Gram test there for line operators
    line = isinstance(T.basis, LineBasis)
    work = _line_spectral_conjugate(E) if line else E
    gram = work.conj().T @ work
    g_diag = np.abs(np.diagonal(gram))
    keep = g_diag > tol
    if not np.any(keep):
        return HilbertClassification("neither", "kernel exhausts the space")
    sub = gram[np.ix_(keep, keep)]
    d = float(np.linalg.norm(sub - np.eye(sub.shape[0])) / math.sqrt(sub.shape[0]))
    if d > tol:
        return HilbertClassification(
            "neither", f"not norm-preserving off the kernel block (defect {d:.2e})"
        )

    # the line decomposition consumes the spectral conjugate built above
    dec = _decompose_line_spectral(work, T) if line else decompose_circle_operator(T)
    scalar_res = max(dec.residual_plus, dec.residual_minus)
    if scalar_res > tol:
        return HilbertClassification(
            "neither", f"not scalar on the frequency blocks (residual {scalar_res:.2e})"
        )
    if abs(dec.k1 - (-1j)) <= 1e-6 and abs(dec.k2 - 1j) <= 1e-6:
        return HilbertClassification("plus-H")
    if abs(dec.k1 - 1j) <= 1e-6 and abs(dec.k2 - (-1j)) <= 1e-6:
        return HilbertClassification("minus-H")
    return HilbertClassification(
        "neither", f"block scalars ({dec.k1:.3g}, {dec.k2:.3g}) are not -/+ i"
    )


@dataclass(frozen=True)
class RotationCommutantReport:
    """Scalarity evidence at truncation level.

    diagonal_defect: relative norm of the off-diagonal part (commuting with
    all rotations forces diagonality in the coefficient basis, exactly at
    finite truncation).  orbit_spread: largest variation of the diagonal
    along the index orbits generated by k -> n*k and k -> k/p inside [1, K]
    (constancy there is what the dilation pair forces).  rotation_defect:
    the measured commutator defect against the supplied rotation set.
    """

    diagonal_defect: float
    orbit_spread: float
    rotation_defect: float


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        self.parent[self.find(i)] = self.find(j)


def rotation_commutant_analysis(
    T: OperatorMatrix, scales: Sequence[RationalScale]
) -> RotationCommutantReport:
    """Certify (or refute) approximate scalarity on the k >= 1 block.

    Needs the scale set to contain rotations (q = p = 1 with at least two
    distinct angles) and one dilation pair (n, 1, 0), (1, p, 0) with
    n, p >= 2; raises naming whichever generator is missing.  Indices whose
    orbit leaves [1, K] contribute only their in-range comparisons.
    """
    if not isinstance(T.basis, FourierBasis):
        raise ValueError("rotation analysis needs an operator on a fourier basis")
    K = T.basis.K
    rot_betas = sorted({r.beta for r in scales if r.q == 1 and r.p == 1})
    ups = [r.q for r in scales if r.p == 1 and r.q >= 2 and r.beta == 0.0]
    downs = [r.p for r in scales if r.q == 1 and r.p >= 2 and r.beta == 0.0]
    if len(rot_betas) < 2:
        raise ValueError("missing rotation generators: need (1, 1, beta) for at least two angles")
    if not ups or not downs:
        raise ValueError(
            "missing dilation generators: need one (n, 1, 0) and one (1, p, 0) with n, p >= 2"
        )

    E = T.entries
    tnorm = np.linalg.norm(E)
    if tnorm == 0.0:
        return RotationCommutantReport(0.0, 0.0, 0.0)
    ks = np.arange(-K, K + 1)
    rot_defect = 0.0
    for beta in rot_betas:
        d = np.exp(1j * ks * beta)
        rot_defect = max(rot_defect, float(np.linalg.norm(E * d[None, :] - d[:, None] * E) / tnorm))
    diagonal_defect = float(np.linalg.norm(E - np.diag(np.diagonal(E))) / tnorm)

    uf = _UnionFind(range(1, K + 1))
    for k in range(1, K + 1):
        for nn in ups:
            if nn * k <= K:
                uf.union(k, nn * k)
        for pp in downs:
            if k % pp == 0 and k // pp >= 1:
                uf.union(k, k // pp)
    groups = {}
    for k in range(1, K + 1):
        groups.setdefault(uf.find(k), []).append(k)
    diag = np.diagonal(E)
    spread = 0.0
    for members in groups.values():
        if len(members) < 2:
            continue
        vals = np.array([diag[k + K] for k in members])
        spread = max(spread, float(np.max(np.abs(vals[:, None] - vals[None, :]))))
    return RotationCommutantReport(diagonal_defect, spread, rot_defect)


def synthesize_commuting_operator(lam: complex, eta: complex, basis: Basis) -> OperatorMatrix:
    """Construct lam*I + eta*H on the given basis (H being the multiplier
    Hilbert transform of that basis); the line decomposition recovers
    (lam, eta) exactly up to roundoff."""
    if isinstance(basis, LineBasis):
        # F^-1 diag(symbol) F is the circulant T[j, l] = h[(j - l) mod n] of
        # the single column h = ifft(symbol); with p = (h[1:], h), that is
        # p[n-1-l+j], the transposed reversed sliding windows of p.
        h = np.fft.ifft(lam + eta * (-1j) * line_ops._sign_multiplier(basis.grid()))
        p = np.concatenate((h[1:], h))
        windows = np.lib.stride_tricks.sliding_window_view(p, basis.n)
        return OperatorMatrix(basis, windows[::-1].T)
    if isinstance(basis, FourierBasis):
        diag_vals = lam + eta * (-1j) * circle_ops._sign_multiplier(basis.K)
        return OperatorMatrix(basis, np.diag(diag_vals))
    raise ValueError(f"unsupported basis {basis!r}")

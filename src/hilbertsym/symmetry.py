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
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .circle_ops import RationalScale, semigroup_act
from .line_ops import AffineElement, rep_natural
from .signals import CircleSignal, Grid1D, LineSignal, sign_symbol, stack_signals

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

    def __post_init__(self):
        self.grid()  # the grid's own checks of n, x_min and dx

    def grid(self) -> Grid1D:
        return Grid1D(x_min=self.x_min, n=self.n, dx=self.dx)

    def signed_indices(self) -> np.ndarray:
        """Signed frequency index of each spectral-basis row (wrap order)."""
        return self.grid().signed_indices()

    @property
    def dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class FourierBasis:
    """Circle coefficient basis e^{ik theta}, k = -K..K (dim = 2K+1)."""

    K: int

    def __post_init__(self):
        if not isinstance(self.K, (int, np.integer)) or self.K < 0:
            raise ValueError(f"Fourier basis degree K must be an integer >= 0, got {self.K!r}")

    def signed_indices(self) -> np.ndarray:
        """Fourier index k of each basis row, -K..K."""
        return np.arange(-self.K, self.K + 1)

    @property
    def dim(self) -> int:
        return 2 * self.K + 1


Basis = Union[LineBasis, FourierBasis]


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix acting on a declared truncated basis.

    ``frobenius_norm`` is ||entries||_F, summed once at construction by
    :func:`_frobenius`; it is inf when the sum of squares overflows."""

    basis: Basis
    entries: np.ndarray
    frobenius_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator entries must be square, got shape {arr.shape}")
        if arr.shape[0] != self.basis.dim:
            raise ValueError(
                f"dimension {arr.shape[0]} inconsistent with basis dim {self.basis.dim}"
            )
        norm = _frobenius(arr)  # finite only if every entry is; inf may be overflow
        if not math.isfinite(norm) and not np.isfinite(arr.ravel("K").view(float)).all():
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "frobenius_norm", norm)

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


def _diagonal(m: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a square array, whatever its row
    stride (``reshape(-1)`` of a padded array would be a copy)."""
    return np.einsum("ii->i", m)


def _spectral_matrix(T: OperatorMatrix) -> np.ndarray:
    """T in the basis where the sign symbol is diagonal, as a fresh (n, n)
    array with rows n + 1 values apart (the [:, :n] view of an (n, n + 1)
    array), so that the transform along axis 0 does not map every element of
    a column to the same cache set when n is a power of two.

    On the line that is the conjugation by the unitary DFT; the calibration
    prefactor of the public transform is a constant-modulus diagonal and
    drops out of every quantity used here (diagonal entries and block-row
    Frobenius norms).  Both transforms write into the result.  On the circle
    the coefficient basis already is that basis.
    """
    n = T.dim
    out = np.empty((n, n + 1), dtype=complex)[:, :n]
    if isinstance(T.basis, FourierBasis):
        np.copyto(out, T.entries)
        return out
    np.fft.ifft(T.entries, axis=1, out=out)
    return np.fft.fft(out, axis=0, out=out)


def _row_sq_norms(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each row of a complex matrix with
    contiguous rows, read through its float view without a temporary."""
    v = m.view(float)
    return np.einsum("ij,ij->i", v, v)


def _frobenius(m: np.ndarray) -> float:
    """Frobenius norm of a complex matrix, summed in a fixed order.  Not
    np.linalg.norm: on a complex matrix it sums through BLAS, whose threads
    split the sum (so its last bits depend on the CPU count) and spin on the
    CPUs of the verify suite's thread map."""
    return math.sqrt(float(_row_sq_norms(np.ascontiguousarray(m)).sum()))


def decompose_line_operator(T: OperatorMatrix) -> ScalarDecomposition:
    """Extract the lam*I + eta*H form of a line-basis operator.

    No commutation is assumed; the residuals quantify how far the operator
    is from the scalar-on-Hardy-blocks shape that commuting with the full
    scale/shift action forces.
    """
    if not isinstance(T.basis, LineBasis):
        raise ValueError("line decomposition needs an operator on a line basis")
    return _decompose_blocks(_spectral_matrix(T), T)


def decompose_circle_operator(T: OperatorMatrix) -> ScalarDecomposition:
    """Extract the three block scalars (on k >= 1, k = 0, k <= -1) of a
    circle-basis operator, reported as (lam, eta, omega) in that order."""
    if not isinstance(T.basis, FourierBasis):
        raise ValueError("circle decomposition needs an operator on a fourier basis")
    return _decompose_blocks(_spectral_matrix(T), T)


def _decompose_blocks(tilde: np.ndarray, T: OperatorMatrix) -> ScalarDecomposition:
    """Block scalars of T from ``tilde``, its :func:`_spectral_matrix`.

    The blocks are s > 0, s < 0 and s == 0 for the sign symbol s of the
    basis.  The two spaces differ only in the zero block's value: on the
    line (mean and Nyquist rows, where H vanishes) the scalar form forces
    lam; on the circle (k = 0) it is the free third scalar.

    Consumes ``tilde``: the reconstruction is subtracted from its diagonal in
    place, so its rows become the defect rows, whose squared norms are taken
    once and summed per block.
    """
    s = sign_symbol(T.basis.signed_indices())
    plus, minus, zero = s > 0, s < 0, s == 0
    if not (plus.any() and minus.any()):
        raise ValueError(f"degenerate basis: no nontrivial frequency blocks at dim={T.dim}")
    diag = np.diagonal(tilde)
    k1 = complex(diag[plus].mean())
    k2 = complex(diag[minus].mean())
    line = isinstance(T.basis, LineBasis)
    k0 = (k2 + k1) / 2.0 if line else complex(diag[zero].mean())
    recon = np.empty(T.dim, dtype=complex)
    recon[plus] = k1
    recon[minus] = k2
    recon[zero] = k0
    _diagonal(tilde)[...] -= recon
    rows = _row_sq_norms(tilde)
    tnorm = T.frobenius_norm

    def residual(mask):
        return 0.0 if tnorm == 0.0 else math.sqrt(float(rows[mask].sum())) / tnorm

    residuals = dict(
        residual_plus=residual(plus),
        residual_minus=residual(minus),
        residual_zero=residual(zero),
    )
    if line:
        return ScalarDecomposition(
            "line", k1, k2, None, lam=k0, eta=(k2 - k1) / 2.0j, omega=None, **residuals
        )
    return ScalarDecomposition("circle", k1, k2, k0, lam=k1, eta=k0, omega=k2, **residuals)


@dataclass(frozen=True)
class HilbertClassification:
    verdict: str  # "plus-H" | "minus-H" | "neither"
    reason: Optional[str] = None


def _conjugation_defect(T: OperatorMatrix, tnorm: float) -> float:
    """Deviation from commuting with the real structure (conjugation of
    samples on the line; c_{-k} -> conj(c_k) pairing on coefficients),
    relative to tnorm = ||T||_F > 0.  On the line that is ||Im T||_F, read
    through the float view of the entries."""
    E = T.entries
    if isinstance(T.basis, LineBasis):
        im = E.ravel("K").view(float)[1::2]
        return math.sqrt(float(np.einsum("i,i->", im, im))) / tnorm
    return _frobenius(np.conj(E[::-1, ::-1]) - E) / tnorm


def _antisymmetry_defect(E: np.ndarray, tnorm: float) -> float:
    """||E^H + E||_F / tnorm, from M = conj(E) + E^T (whose transpose is
    E^H + E), built 64 rows at a time so that E^T is read in cache-sized
    strips rather than one strided column per element.  M has the memory
    order of ``E.conj()``, so its norm is the same float as that of
    ``E.conj().T + E`` built in one pass."""
    m = np.empty_like(E)
    for r in range(0, E.shape[0], 64):
        np.conjugate(E[r : r + 64], out=m[r : r + 64])
        m[r : r + 64] += E[:, r : r + 64].T
    return float(np.linalg.norm(m) / tnorm)


def _certify(work: np.ndarray, T: OperatorMatrix, tnorm: float, tol: float):
    """Decompose T from ``work`` (W, the :func:`_spectral_matrix` of T) and
    report which of the tests (ii) and (iii) of :func:`classify_pm_hilbert`
    the decomposition proves to pass: (dec, anti_symmetric, isometric).

    dec is None on a degenerate basis, with W untouched.  Otherwise
    ``work`` is left holding R when (iii) is certified and W again, bitwise,
    when it is not, for the exact Gram test.

    Both bounds of that docstring hold because W_K = D_K + R_K, with D the
    diagonal of block scalars :func:`_decompose_blocks` fits (d_j = k1, k2
    or the zero-block value on row j) and R = W - D, whose norm the
    residuals give.  W, R and the residuals carry errors of about n eps
    ||W||_F, and the exact Gram test computes W_K^H W_K with an error of at
    most about n eps ||W||_F^2 (entrywise bounds of a product summed in any
    order), so 4 n eps ||W||_F and 4 n eps ||W||_F^2 / sqrt(m) are added to
    the two bounds before they are held to tol/2.  With no squared column
    norm in [tol/2, 2 tol], the keep-sets of the two Gram tests agree
    despite roundoff.
    """
    n = T.dim
    s = sign_symbol(T.basis.signed_indices())
    blocks = (s > 0, s < 0, s == 0)
    if not (blocks[0].any() and blocks[1].any()):
        return None, False, False  # the exact path refutes it or raises, as before
    v = work.view(float)
    col = np.einsum("ij,ij->j", v, v)
    col = col[0::2] + col[1::2]
    saved = np.diagonal(work).copy()
    dec = _decompose_blocks(work, T)  # leaves R in work
    d = (dec.k1, dec.k2, dec.lam if dec.space == "line" else dec.k0)  # one per block
    r = tnorm * math.hypot(dec.residual_plus, dec.residual_minus, dec.residual_zero)
    eps_n = 4.0 * n * np.finfo(float).eps * tnorm
    re_d = math.sqrt(sum(np.count_nonzero(mask) * z.real * z.real for z, mask in zip(d, blocks)))
    anti_symmetric = 2.0 * (re_d + r) + eps_n <= tol / 2 * tnorm

    keep = col > tol
    m = np.count_nonzero(keep)
    isometric = False
    if m and not np.any((col >= tol / 2) & (col <= 2 * tol)):
        scalars = [(abs(z), np.count_nonzero(keep & mask)) for z, mask in zip(d, blocks)]
        diag_part = math.sqrt(sum(c * (a * a - 1.0) * (a * a - 1.0) for a, c in scalars))
        d_max = max(a for a, c in scalars if c)
        bound = diag_part + 2.0 * d_max * r + r * r + eps_n * tnorm
        isometric = bound / math.sqrt(m) <= tol / 2
    if not isometric:
        _diagonal(work)[...] = saved  # W again, bitwise
    return dec, anti_symmetric, isometric


def classify_pm_hilbert(T: OperatorMatrix, tol: float = 1e-8) -> HilbertClassification:
    """Decide whether T is the Hilbert transform, its negative, or neither.

    Checks, in order and each to ``tol``: (i) real (conjugation-equivariant),
    (ii) anti-symmetric, ||T^H + T||_F <= tol ||T||_F, (iii) norm-preserving
    on the orthocomplement of its kernel block: the Gram defect
    ||W_K^H W_K - I||_F / sqrt(m), for W the operator in the frequency basis
    and K the m columns with squared norm above ``tol``.  A candidate
    passing all three is decomposed; the verdict follows the sign of Im(k1)
    (k1 = -i means plus-H) provided the scalar residuals are small.  The
    first failed property is returned as the reason.

    (ii) and (iii) are first certified from one block decomposition
    W = D + R (D the diagonal of block scalars d_j), made after the
    O(n^2 log n) change of basis:

        ||T^H + T||_F = ||W^H + W||_F <= 2 sqrt(sum_j Re(d_j)^2) + 2 ||R||_F,
        defect <= [sqrt(sum_K (|d_j|^2 - 1)^2) + 2 max_K |d_j| ||R||_F
                   + ||R||_F^2] / sqrt(m).

    A test whose bound (with a roundoff allowance) is at most tol/2, and for
    (iii) no squared column norm in [tol/2, 2 tol], passes; otherwise the
    exact test runs (an O(n^2) pass over T^H + T, the O(n^3) product
    W^H W).  As ||T^H + T||_F >= 2 ||Re diag T||, operators such as I or
    diag(x) go straight to the exact test (ii), with no change of basis.
    Either way, verdicts and reasons are the same.
    """
    E = T.entries
    tnorm = T.frobenius_norm
    if tnorm == 0.0:
        return HilbertClassification("neither", "operator is zero")

    d = _conjugation_defect(T, tnorm)
    if d > tol:
        return HilbertClassification("neither", f"not a real operator (defect {d:.2e})")

    work, dec, anti_symmetric, isometric = None, None, False, False
    if np.hypot.reduce(np.diagonal(E).real) <= tol * tnorm:
        work = _spectral_matrix(T)
        dec, anti_symmetric, isometric = _certify(work, T, tnorm, tol)
    if not anti_symmetric:
        d = _antisymmetry_defect(E, tnorm)
        if d > tol:
            return HilbertClassification("neither", f"not anti-symmetric (defect {d:.2e})")
    if not isometric:
        # the kernel block (mean/Nyquist-type modes) is axis-aligned in the
        # frequency basis, so run the Gram test there
        work = _spectral_matrix(T) if work is None else work
        gram = work.conj().T @ work
        g_diag = np.abs(np.diagonal(gram))
        keep = g_diag > tol
        if not np.any(keep):
            return HilbertClassification("neither", "kernel exhausts the space")
        sub = gram if keep.all() else gram[np.ix_(keep, keep)]
        _diagonal(sub)[...] -= 1.0  # minus the identity, in place
        d = float(np.linalg.norm(sub) / math.sqrt(sub.shape[0]))
        if d > tol:
            return HilbertClassification(
                "neither", f"not norm-preserving off the kernel block (defect {d:.2e})"
            )
    if dec is None:  # not decomposed yet; a degenerate basis raises here
        dec = _decompose_blocks(work, T)

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
    orbit_components: the number of those orbits (classes of [1, K]).  Each
    orbit may carry its own constant with all three defects zero, so the
    three certify scalarity on the k >= 1 block only when this is 1.
    """

    diagonal_defect: float
    orbit_spread: float
    rotation_defect: float
    orbit_components: int


def rotation_commutant_analysis(
    T: OperatorMatrix, scales: Sequence[RationalScale]
) -> RotationCommutantReport:
    """Measure approximate scalarity on the k >= 1 block: small defects
    certify it only when the dilations connect [1, K] into one orbit
    (``orbit_components == 1``).

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

    # the orbit classes of [1, K] under the edges m ~ c*m (c*m <= K), by
    # min-label propagation; an edge k ~ k/p is the edge m ~ p*m
    k = np.arange(1, K + 1)
    src = np.concatenate([k[: K // c] for c in ups + downs]) - 1
    dst = np.concatenate([c * k[: K // c] for c in ups + downs]) - 1
    label, prev = k, None
    while not np.array_equal(label, prev):
        prev, label = label, label.copy()
        np.minimum.at(label, src, prev[dst])
        np.minimum.at(label, dst, prev[src])
    components = np.unique(label).size

    E = T.entries
    tnorm = T.frobenius_norm
    if tnorm == 0.0:
        return RotationCommutantReport(0.0, 0.0, 0.0, components)
    ks = np.arange(-K, K + 1)
    rot_defect = 0.0
    for beta in rot_betas:
        d = np.exp(1j * ks * beta)
        rot_defect = max(rot_defect, _frobenius(E * d[None, :] - d[:, None] * E) / tnorm)
    diagonal_defect = _frobenius(E - np.diag(np.diagonal(E))) / tnorm

    diag = np.diagonal(E)[K + 1 :]
    same = label[:, None] == label[None, :]
    spread = float(np.max(np.abs(diag[:, None] - diag[None, :]), where=same, initial=0.0))
    return RotationCommutantReport(diagonal_defect, spread, rot_defect, components)


def synthesize_commuting_operator(lam: complex, eta: complex, basis: Basis) -> OperatorMatrix:
    """Construct lam*I + eta*H on the given basis (H being the multiplier
    Hilbert transform of that basis); the line decomposition recovers
    (lam, eta) exactly up to roundoff."""
    if not isinstance(basis, (LineBasis, FourierBasis)):
        raise ValueError(f"unsupported basis {basis!r}")
    symbol = lam + eta * (-1j) * sign_symbol(basis.signed_indices())
    if isinstance(basis, FourierBasis):
        return OperatorMatrix(basis, np.diag(symbol))
    # F^-1 diag(symbol) F is the circulant T[j, l] = h[(j - l) mod n] of the
    # single column h = ifft(symbol); with p = (h[1:], h), that is
    # p[n-1-l+j], the transposed reversed sliding windows of p.
    h = np.fft.ifft(symbol)
    p = np.concatenate((h[1:], h))
    windows = np.lib.stride_tricks.sliding_window_view(p, basis.n)
    return OperatorMatrix(basis, windows[::-1].T)

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
from .signals import CircleSignal, Grid1D, LineSignal, _is_integer, sign_symbol, stack_signals

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
        if not _is_integer(self.K) or self.K < 0:
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
    """Complex matrix acting on a declared truncated basis; ``entries`` is a
    read-only array.

    ``frobenius_norm`` is ||entries||_F, summed once at construction by
    :func:`_frobenius`; it is inf only when the norm exceeds the float
    range.

    An operator that commutes with the shifts of its basis is a Fourier
    multiplier, and keeps its spectral symbol (wrap order on the line, the
    diagonal on the circle) in ``_symbol``, which decomposition, the +-H
    classifier and :func:`apply_operator` read in place of the matrix.
    Construction finds it by exact tests: on the line the entries must
    equal the circulant of their first column, whose FFT is the symbol; on
    the circle every off-diagonal entry must be 0.  The first row, and on
    the line the main diagonal, are compared first, so most other operators
    are turned away in O(n).  Every other operator has ``_symbol`` None.
    An operator built by :func:`synthesize_commuting_operator` keeps the
    symbol it was built from: on the line its entries are the O(n)-memory
    circulant view of ifft(symbol), and its norm is ||symbol||_2
    (Parseval)."""

    basis: Basis
    entries: np.ndarray
    frobenius_norm: float = field(init=False, repr=False, compare=False)
    _symbol: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _multiplier(cls, basis: Basis, symbol: np.ndarray) -> "OperatorMatrix":
        """The multiplier with this symbol, built without the copy and the
        n^2 norm of ``__post_init__``; its entries are finite exactly when
        ``col``, the first column (line) or diagonal (circle), is."""
        col = np.fft.ifft(symbol) if isinstance(basis, LineBasis) else symbol
        if not np.isfinite(col.view(float)).all():
            raise ValueError("operator entries must be finite")
        entries = np.diag(symbol) if col is symbol else _circulant(col)
        entries.setflags(write=False)
        symbol.setflags(write=False)
        # on the circle the same float as the diagonal matrix's norm: the
        # same row norms, summed in the same order
        norm = _frobenius(symbol.reshape(-1, 1))
        T = object.__new__(cls)
        for name, value in zip(("basis", "entries", "frobenius_norm", "_symbol"),
                               (basis, entries, norm, symbol)):
            object.__setattr__(T, name, value)
        return T

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator entries must be square, got shape {arr.shape}")
        if arr.shape[0] != self.basis.dim:
            raise ValueError(
                f"dimension {arr.shape[0]} inconsistent with basis dim {self.basis.dim}"
            )
        norm = _frobenius(arr)  # finite only if every entry is; inf may be a huge norm
        if not math.isfinite(norm) and not np.isfinite(arr.view(float)).all():
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "frobenius_norm", norm)
        object.__setattr__(self, "_symbol", _symbol_of(self.basis, arr))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _symbol_of(basis: Basis, E: np.ndarray) -> Optional[np.ndarray]:
    """The read-only symbol of E if E commutes with the shifts of ``basis``
    (see :class:`OperatorMatrix`), else None."""
    if isinstance(basis, LineBasis):
        C = _circulant(E[:, 0])
        if not (np.array_equal(E[0], C[0]) and np.array_equal(np.diagonal(E), np.diagonal(C))
                and np.array_equal(E, C)):
            return None
        symbol = np.fft.fft(E[:, 0])
        symbol.setflags(write=False)
        return symbol
    # the off-diagonal entries lie between the diagonal ones, n + 1 apart in
    # the flat entries
    n = E.shape[0]
    if E[0, 1:].any() or E.ravel()[1:].reshape(n - 1, n + 1)[:, :n].any():
        return None
    return np.diagonal(E)


def apply_operator(T: OperatorMatrix, sig):
    """Apply the matrix to a signal living on the matching basis, along the
    last axis (each row of a (P, n) batch separately).

    A multiplier is applied through its symbol, with no matrix product:
    ifft(symbol * fft(x)) on the line, symbol * c on the circle."""
    if isinstance(sig, LineSignal):
        if not isinstance(T.basis, LineBasis) or T.basis.grid() != sig.grid:
            raise ValueError("operator basis does not match the signal grid")
        return LineSignal(sig.grid, _apply(T, sig.values))
    if isinstance(sig, CircleSignal):
        if not isinstance(T.basis, FourierBasis) or T.basis.K != sig.K:
            raise ValueError("operator basis does not match the signal truncation")
        return CircleSignal(_apply(T, sig.coeffs))
    raise ValueError(f"unsupported signal type {type(sig).__name__}")


def _apply(T: OperatorMatrix, v: np.ndarray) -> np.ndarray:
    if T._symbol is None:
        return v @ T.entries.T
    if isinstance(T.basis, FourierBasis):
        return v * T._symbol
    return np.fft.ifft(T._symbol * np.fft.fft(v))


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
    """Relative commutator defects: ``defects[i, j]``, of a read-only float
    array of shape (actions, probes), is that of action ``labels[i]`` on
    probe j."""

    labels: tuple
    defects: np.ndarray

    @property
    def max_defect(self) -> float:
        return float(self.defects.max(initial=0.0))


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

    Results are deterministic and order-independent: each defect is a pure
    function of (T, action, probe).
    """
    labels = tuple(label for label, _ in actions)
    defects = np.zeros((len(labels), 0))
    if probes:
        batch = stack_signals(probes)
        probe_norms = np.linalg.norm(_values(batch), axis=-1)
        if not np.all(probe_norms > 0.0):
            raise ValueError("probes must be nonzero")
        t_batch = apply_operator(T, batch)
        defects = np.array([
            np.linalg.norm(_values(apply_operator(T, act(batch))) - _values(act(t_batch)), axis=-1)
            for _, act in actions
        ]).reshape(len(labels), len(probes)) / probe_norms
    defects.setflags(write=False)
    return CommutatorReport(labels, defects)


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
    residual_zero: float

    @property
    def max_residual(self) -> float:
        return max(self.residual_plus, self.residual_minus, self.residual_zero)

    def to_json_dict(self) -> dict:
        """The fields as strict JSON: a non-finite float (a residual relative
        to an unrepresentable ||T||_F, say) is null, as in the verify report."""

        def num(x):
            return None if not math.isfinite(x) else float(x)

        def c2(z):
            return None if z is None else [num(np.real(z)), num(np.imag(z))]

        return {
            "space": self.space,
            "k1": c2(self.k1),
            "k2": c2(self.k2),
            "k0": c2(self.k0),
            "lambda": c2(self.lam),
            "eta": c2(self.eta),
            "omega": c2(self.omega),
            "residuals": {
                "plus": num(self.residual_plus),
                "minus": num(self.residual_minus),
                "zero": num(self.residual_zero),
            },
        }


def _diagonal(m: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a square array, whatever its row
    stride (``reshape(-1)`` of a padded array would be a copy)."""
    return np.einsum("ii->i", m)


def _circulant(col: np.ndarray) -> np.ndarray:
    """Read-only view of the circulant C[j, l] = col[(j - l) mod n]: with
    p = (col[1:], col), that is p[n-1-l+j], the transposed reversed sliding
    windows of p."""
    p = np.concatenate((col[1:], col))
    return np.lib.stride_tricks.sliding_window_view(p, col.size)[::-1].T


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
    """Squared Frobenius norm of each row of a real matrix, or a complex one
    with contiguous rows, read through its float view without a temporary."""
    v = m.view(float)
    return np.einsum("ij,ij->i", v, v)


def _scaled_row_sq_norms(m: np.ndarray) -> tuple:
    """(rows, c): the :func:`_row_sq_norms` of m / c, for c = 1 unless their
    fixed-order sum overflows, and then the power of two c <= max |part| < 2c.
    Dividing by c is exact: a sum that is finite at c = 1 is the same float
    over c^2 at any c, and its square root the same float over c."""
    rows = _row_sq_norms(m)
    if float(rows.sum()) != math.inf:
        return rows, 1.0
    v = m.view(float)
    c = 2.0 ** (math.frexp(float(np.abs(v).max()))[1] - 1)
    return _row_sq_norms(v / c), c


def _frobenius(m: np.ndarray) -> float:
    """Frobenius norm of a matrix from its :func:`_scaled_row_sq_norms`, so
    finite whenever representable; only a complex matrix whose rows are not
    contiguous is copied first.  Not np.linalg.norm, which sums a complex
    matrix through BLAS, whose threads split the sum, so that its last bits
    depend on the CPU count."""
    if m.dtype.kind == "c" and m.strides[-1] != m.itemsize:
        m = np.ascontiguousarray(m)  # its float view needs contiguous rows
    rows, c = _scaled_row_sq_norms(m)
    return math.sqrt(float(rows.sum())) * c


def decompose_line_operator(T: OperatorMatrix) -> ScalarDecomposition:
    """Extract the lam*I + eta*H form of a line-basis operator.

    No commutation is assumed; the residuals quantify how far the operator
    is from the scalar-on-Hardy-blocks shape that commuting with the full
    scale/shift action forces.  A multiplier (an operator that commutes
    with the grid shift: synthesized, loaded from a file or any circulant)
    is read from the n values of its symbol; every other operator is
    conjugated by the DFT in full.
    """
    if not isinstance(T.basis, LineBasis):
        raise ValueError("line decomposition needs an operator on a line basis")
    return _decompose(T)


def decompose_circle_operator(T: OperatorMatrix) -> ScalarDecomposition:
    """Extract the three block scalars (on k >= 1, k = 0, k <= -1) of a
    circle-basis operator, reported as (lam, eta, omega) in that order; a
    diagonal one from the diagonal it keeps as its symbol."""
    if not isinstance(T.basis, FourierBasis):
        raise ValueError("circle decomposition needs an operator on a fourier basis")
    return _decompose(T)


def _decompose(T: OperatorMatrix) -> ScalarDecomposition:
    tilde = _spectral_matrix(T) if T._symbol is None else T._symbol.copy()
    return _decompose_blocks(tilde, T)


def _decompose_blocks(tilde: np.ndarray, T: OperatorMatrix) -> ScalarDecomposition:
    """Block scalars of T from ``tilde``: its :func:`_spectral_matrix`, or,
    for a multiplier, a copy of its symbol (:class:`OperatorMatrix`).

    The blocks are s > 0, s < 0 and s == 0 for the sign symbol s of the
    basis.  The two spaces differ only in the zero block's value: on the
    line (mean and Nyquist rows, where H vanishes) the scalar form forces
    lam; on the circle (k = 0) it is the free third scalar.

    Consumes ``tilde``: the reconstruction is subtracted from its diagonal in
    place, so its rows become the defect rows (for a 1-D symbol, the rows of
    one entry each, |symbol_j - sigma_j|), whose squared norms are taken
    once by :func:`_scaled_row_sq_norms` and summed per block.  A residual is
    relative to ||T||_F; it is NaN when ||T||_F is not representable.
    """
    s = sign_symbol(T.basis.signed_indices())
    plus, minus, zero = s > 0, s < 0, s == 0
    if not (plus.any() and minus.any()):
        raise ValueError(f"degenerate basis: no nontrivial frequency blocks at dim={T.dim}")
    diag = _diagonal(tilde) if tilde.ndim == 2 else tilde
    k1 = complex(diag[plus].mean())
    k2 = complex(diag[minus].mean())
    line = isinstance(T.basis, LineBasis)
    k0 = (k2 + k1) / 2.0 if line else complex(diag[zero].mean())
    for mask, k in ((plus, k1), (minus, k2), (zero, k0)):
        diag[mask] -= k
    rows, c = _scaled_row_sq_norms(tilde.reshape(T.dim, -1))
    tnorm = T.frobenius_norm / c if T.frobenius_norm < math.inf else math.nan

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
    relative to tnorm = ||T||_F > 0.  On the line that is ||Im T||_F."""
    E = T.entries
    m = E.imag if isinstance(T.basis, LineBasis) else np.conj(E[::-1, ::-1]) - E
    return _frobenius(m) / tnorm


def _antisymmetry_defect(E: np.ndarray, tnorm: float) -> float:
    """||E^H + E||_F / tnorm of C-order entries, built in one C-order n x n
    array (a copy, which unlike a ufunc on two memory orders takes no
    buffer)."""
    m = E.T.copy()
    np.conjugate(m, out=m)
    m += E
    return _frobenius(m) / tnorm


def _symbol_conjugation_defect(T: OperatorMatrix, tnorm: float) -> float:
    """:func:`_conjugation_defect` of a multiplier, from its symbol s alone.
    On the line Im T is the multiplier (s - conj s(-k)) / 2i, s(-k) the
    symbol at index -j mod n, so ||Im T||_F = ||s - conj s(-k)||_2 / 2
    (Parseval); on the circle conj(T[::-1, ::-1]) - T is the diagonal
    conj s[::-1] - s."""
    s = T._symbol
    line = isinstance(T.basis, LineBasis)
    m = np.concatenate((s[:1], s[:0:-1])) if line else s[::-1].copy()
    np.conjugate(m, out=m)
    m -= s
    return (0.5 if line else 1.0) * _frobenius(m.reshape(-1, 1)) / tnorm


def _gram_test(T: OperatorMatrix, tol: float) -> tuple:
    """(W, d): T in the frequency basis, where the kernel block (mean and
    Nyquist-type modes) is axis-aligned, and the Gram defect of test (iii)
    of :func:`classify_pm_hilbert`, None when no column is kept.  For a
    multiplier, W is a copy of its symbol s and W^H W is diag(|s|^2)."""
    if T._symbol is None:
        work = _spectral_matrix(T)
        gram = work.conj().T @ work
        keep = np.abs(np.diagonal(gram)) > tol
        sub = gram if keep.all() else gram[np.ix_(keep, keep)]
        _diagonal(sub)[...] -= 1.0  # minus the identity, in place
    else:
        work = T._symbol.copy()
        sq = _row_sq_norms(work.reshape(-1, 1))
        sub = sq[sq > tol].reshape(-1, 1)
        sub -= 1.0
    m = sub.shape[0]
    return work, (_frobenius(sub) / math.sqrt(m) if m else None)


def classify_pm_hilbert(T: OperatorMatrix, tol: float = 1e-8) -> HilbertClassification:
    """Decide whether T is the Hilbert transform, its negative, or neither.

    Checks, in order and each to ``tol`` (a number >= 0, else ValueError):
    (i) real (conjugation-equivariant), (ii) anti-symmetric,
    ||T^H + T||_F <= tol ||T||_F, (iii) norm-preserving on the
    orthocomplement of its kernel block: the Gram defect
    ||W_K^H W_K - I||_F / sqrt(m), for W the operator in the frequency basis
    and K the m columns with squared norm above ``tol``.  A candidate
    passing all three is decomposed; the verdict follows the sign of Im(k1)
    (k1 = -i means plus-H) provided the scalar residuals are small.  The
    first failed property is returned as the reason.

    A multiplier (:class:`OperatorMatrix`) is tested on the n values of its
    symbol s, where W = diag(s), with no n x n array: (i) as
    :func:`_symbol_conjugation_defect` says, (ii) as 2 ||Re s||_2 and (iii)
    on |s|^2, the diagonal of W^H W.  Any other operator takes ||Im T||_F,
    ||T^H + T||_F from one n x n array, the O(n^2 log n) change of basis,
    the O(n^3) product W^H W and the decomposition.  Each norm is a
    fixed-order row sum, finite whenever representable (:func:`_frobenius`),
    and a NaN defect fails its test.
    """
    if not tol >= 0.0:  # also rejects NaN
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    tnorm = T.frobenius_norm
    if tnorm == 0.0:
        return HilbertClassification("neither", "operator is zero")
    s = T._symbol
    d = _conjugation_defect(T, tnorm) if s is None else _symbol_conjugation_defect(T, tnorm)
    if not d <= tol:
        return HilbertClassification("neither", f"not a real operator (defect {d:.2e})")
    if s is None:
        d = _antisymmetry_defect(T.entries, tnorm)
    else:  # T^H + T is the multiplier conj s + s
        d = 2.0 * _frobenius(s.real.reshape(-1, 1)) / tnorm
    if not d <= tol:
        return HilbertClassification("neither", f"not anti-symmetric (defect {d:.2e})")
    work, d = _gram_test(T, tol)
    if d is None:
        return HilbertClassification("neither", "kernel exhausts the space")
    if not d <= tol:
        return HilbertClassification(
            "neither", f"not norm-preserving off the kernel block (defect {d:.2e})"
        )
    dec = _decompose_blocks(work, T)  # a degenerate basis raises here

    scalar_res = max(dec.residual_plus, dec.residual_minus)
    if not scalar_res <= tol:
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
    orbit leaves [1, K] contribute only their in-range comparisons.  A
    diagonal operator (one that keeps its symbol) has diagonal and rotation
    defects of exactly 0 and is read from its diagonal alone.
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
    if T._symbol is not None:  # diagonal: commutes with every rotation, exactly
        diagonal_defect = rot_defect = 0.0
    else:
        ks = np.arange(-K, K + 1)
        rot_defect = 0.0
        for beta in rot_betas:
            d = np.exp(1j * ks * beta)
            rot_defect = max(rot_defect, _frobenius(E * d[None, :] - d[:, None] * E) / tnorm)
        diagonal_defect = _frobenius(E - np.diag(np.diagonal(E))) / tnorm

    # the largest |d_i - d_j| over pairs in one class, a strip of rows at a
    # time so no K x K array is made
    diag = np.diagonal(E)[K + 1 :]
    step = 1 + 1024 // (K + 1)
    spread = 0.0
    for i in range(0, K, step):
        rows = slice(i, i + step)
        same = label[rows, None] == label[None, :]
        spread = max(spread, float(np.abs((diag[rows, None] - diag[None, :])[same]).max()))
    return RotationCommutantReport(diagonal_defect, spread, rot_defect, components)


def synthesize_commuting_operator(lam: complex, eta: complex, basis: Basis) -> OperatorMatrix:
    """Construct lam*I + eta*H on the given basis (H being the multiplier
    Hilbert transform of that basis) from its symbol lam - i eta sgn, which
    the operator keeps: its entries are the circulant view of
    ifft(symbol) on the line and diag(symbol) on the circle, and the
    decompositions recover (lam, eta) from the symbol exactly up to
    roundoff."""
    if not isinstance(basis, (LineBasis, FourierBasis)):
        raise ValueError(f"unsupported basis {basis!r}")
    symbol = lam + eta * (-1j) * sign_symbol(basis.signed_indices())
    return OperatorMatrix._multiplier(basis, symbol)

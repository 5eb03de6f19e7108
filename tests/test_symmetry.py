import contextlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

from hilbertsym import symmetry
from hilbertsym import (
    AffineElement,
    FourierBasis,
    Grid1D,
    LineBasis,
    LineSignal,
    OperatorMatrix,
    RationalScale,
    classify_pm_hilbert,
    commutator_defect,
    decompose_circle_operator,
    decompose_line_operator,
    hilbert_multiplier,
    make_probes,
    rotation_commutant_analysis,
    synthesize_commuting_operator,
)
from hilbertsym.symmetry import (
    HilbertClassification,
    _conjugation_defect,
    _decompose_blocks,
    _spectral_matrix,
    apply_operator,
    circle_semigroup_action,
    line_affine_action,
)
from hilbertsym.signals import sign_symbol
from hilbertsym.verify import _scalarity_scales

N_OP = 512
LBASIS = LineBasis(N_OP, -40.0, 80.0 / N_OP)
FBASIS = FourierBasis(32)


def h_line():
    return synthesize_commuting_operator(0.0, 1.0, LBASIS)


def h_circle(K=32):
    return synthesize_commuting_operator(0.0, 1.0, FourierBasis(K))


def random_operator(basis, seed=12):
    rng = np.random.default_rng(seed)
    n = basis.dim
    return OperatorMatrix(basis, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def assert_residuals_sound(T, dec, recon):
    # ||T - reconstruction||_F = ||T||_F * sqrt(sum of squared residuals)
    lhs = np.linalg.norm(T.entries - recon.entries)
    rhs = np.linalg.norm(T.entries) * np.sqrt(
        dec.residual_plus**2 + dec.residual_minus**2 + dec.residual_zero**2
    )
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(T.entries)


def cauchy_symbol_matrix(K=32):
    ks = np.arange(-K, K + 1)
    return OperatorMatrix(FourierBasis(K), np.diag(np.where(ks >= 0, 1.0, -1.0).astype(complex)))


class TestOperatorMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            OperatorMatrix(FBASIS, np.zeros((4, 5)))
        with pytest.raises(ValueError):
            OperatorMatrix(FBASIS, np.zeros((4, 4)))  # dim != 2K+1
        bad = np.zeros((65, 65), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            OperatorMatrix(FBASIS, bad)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: FourierBasis(-1), "K"),
            (lambda: FourierBasis(2.0), "K"),
            (lambda: LineBasis(4, 0.0, 0.0), "dx"),
            (lambda: LineBasis(4, 0.0, -0.5), "dx"),
            (lambda: LineBasis(1, 0.0, 0.5), "n"),
            (lambda: LineBasis(4, float("nan"), 0.5), "x_min"),
        ],
    )
    def test_bases_are_validated_at_construction(self, make, field):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            make()

    def test_degree_zero_fourier_basis_is_degenerate(self):
        T = synthesize_commuting_operator(1.0, 0.0, FourierBasis(0))
        assert T.dim == 1
        with pytest.raises(ValueError, match="degenerate basis"):
            decompose_circle_operator(T)

    def test_apply_mismatch(self):
        T = h_circle()
        f = LineSignal(Grid1D(0.0, 8, 0.5), np.zeros(8))
        with pytest.raises(ValueError):
            apply_operator(T, f)

    def test_synthesize_matches_multiplier_application(self):
        # independent construction: apply the signal-level operator to every
        # basis vector and compare columns
        n = 64
        basis = LineBasis(n, -8.0, 16.0 / n)
        grid = basis.grid()
        T = synthesize_commuting_operator(0.25 + 1j, -0.5, basis)
        cols = np.empty((n, n), dtype=complex)
        for j in range(n):
            e = np.zeros(n, dtype=complex)
            e[j] = 1.0
            f = LineSignal(grid, e)
            out = 0.25 + 1j * 0 + 0  # keep lints quiet; computed below
            out = (0.25 + 1j) * f.values - 0.5 * hilbert_multiplier(f).values
            cols[:, j] = out
        assert np.max(np.abs(T.entries - cols)) <= 1e-12


class TestCommutatorDefect:
    def test_zero_operator(self):
        T = OperatorMatrix(LBASIS, np.zeros((N_OP, N_OP), dtype=complex))
        probes = make_probes(
            "gaussian-packet", seed=1, count=3, grid=LBASIS.grid(),
            width=(1.25, 1.4), center=(-1.0, 1.0), modulation=(4.5, 5.2),
        )
        report = commutator_defect(T, [line_affine_action(AffineElement(2.0, 0.0))], probes)
        assert report.max_defect == 0.0
        assert len(report.defects) == 3

    def test_position_multiplication_fails_translation(self):
        grid = LBASIS.grid()
        T = OperatorMatrix(LBASIS, np.diag(grid.positions().astype(complex)))
        probes = make_probes(
            "gaussian-packet", seed=2, count=3, grid=grid,
            width=(1.25, 1.4), center=(-1.0, 1.0), modulation=(4.5, 5.2),
        )
        b = 7 * grid.dx
        report = commutator_defect(T, [line_affine_action(AffineElement(1.0, b))], probes)
        # [x, shift] = -b * shift, so the defect sits near |b|
        assert report.max_defect > 0.1

    def test_hilbert_commutes_with_affine_actions(self):
        probes = make_probes(
            "gaussian-packet", seed=3, count=4, grid=LBASIS.grid(),
            width=(1.25, 1.4), center=(-1.0, 1.0), modulation=(4.5, 5.2),
        )
        dx = LBASIS.dx
        actions = [
            line_affine_action(AffineElement(a, b))
            for a in (0.5, 2.0, 4.0)
            for b in (0.0, 7 * dx, 3.5 * dx)
        ]
        report = commutator_defect(h_line(), actions, probes)
        assert report.max_defect <= 1e-6

    def test_circle_hilbert_commutes_exactly(self):
        K = 32
        probes = make_probes("trig-poly", seed=4, count=4, K=K, degree=K // 4)
        actions = [
            circle_semigroup_action(RationalScale(1, 2, 0.0), K),
            circle_semigroup_action(RationalScale(2, 1, 0.9), K),
        ]
        report = commutator_defect(h_circle(K), actions, probes)
        assert report.max_defect <= 1e-14


class TestLineDecomposition:
    def test_hilbert_matrix(self):
        dec = decompose_line_operator(h_line())
        assert abs(dec.k1 - (-1j)) <= 1e-12
        assert abs(dec.k2 - 1j) <= 1e-12
        assert abs(dec.lam) <= 1e-12
        assert abs(dec.eta - 1.0) <= 1e-12
        assert dec.max_residual <= 1e-12

    def test_identity(self):
        dec = decompose_line_operator(synthesize_commuting_operator(1.0, 0.0, LBASIS))
        assert abs(dec.k1 - 1.0) <= 1e-12
        assert abs(dec.k2 - 1.0) <= 1e-12
        assert abs(dec.eta) <= 1e-12

    def test_weighted_projection_combination(self):
        ident = synthesize_commuting_operator(1.0, 0.0, LBASIS).entries
        h = h_line().entries
        p_plus = 0.5 * ident + 0.5j * h
        p_minus = 0.5 * ident - 0.5j * h
        T = OperatorMatrix(LBASIS, 3.0 * p_plus + 5.0 * p_minus)
        dec = decompose_line_operator(T)
        assert abs(dec.k1 - 3.0) <= 1e-12
        assert abs(dec.k2 - 5.0) <= 1e-12
        assert abs(dec.lam - 4.0) <= 1e-12
        assert abs(dec.eta - (-1j)) <= 1e-12
        assert dec.max_residual <= 1e-12

    def test_roundtrip_random_scalars(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            lam = complex(rng.normal(), rng.normal())
            eta = complex(rng.normal(), rng.normal())
            dec = decompose_line_operator(synthesize_commuting_operator(lam, eta, LBASIS))
            assert abs(dec.lam - lam) <= 1e-12
            assert abs(dec.eta - eta) <= 1e-12
            assert dec.max_residual <= 1e-12

    def test_soundness_of_residuals(self):
        T = random_operator(LineBasis(128, -40.0, 80.0 / 128))
        dec = decompose_line_operator(T)
        assert_residuals_sound(T, dec, synthesize_commuting_operator(dec.lam, dec.eta, T.basis))

    def test_wrong_basis_rejected(self):
        with pytest.raises(ValueError):
            decompose_line_operator(h_circle())

    def test_degenerate_basis_rejected(self):
        tiny = LineBasis(2, 0.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            decompose_line_operator(OperatorMatrix(tiny, np.eye(2, dtype=complex)))


class TestCircleDecomposition:
    def test_circular_hilbert_blocks(self):
        dec = decompose_circle_operator(h_circle())
        assert abs(dec.lam - (-1j)) <= 1e-14
        assert abs(dec.eta) <= 1e-14
        assert abs(dec.omega - 1j) <= 1e-14
        assert dec.max_residual <= 1e-14

    def test_identity(self):
        dec = decompose_circle_operator(synthesize_commuting_operator(1.0, 0.0, FBASIS))
        assert (dec.lam, dec.eta, dec.omega) == (1.0, 1.0, 1.0)

    def test_cauchy_symbol_blocks(self):
        dec = decompose_circle_operator(cauchy_symbol_matrix())
        assert abs(dec.lam - 1.0) <= 1e-14
        assert abs(dec.eta - 1.0) <= 1e-14
        assert abs(dec.omega - (-1.0)) <= 1e-14

    def test_soundness_of_residuals(self):
        T = random_operator(FourierBasis(63))
        dec = decompose_circle_operator(T)
        ks = np.arange(-63, 64)
        recon = np.diag(np.where(ks > 0, dec.lam, np.where(ks < 0, dec.omega, dec.eta)))
        assert_residuals_sound(T, dec, OperatorMatrix(T.basis, recon))

    def test_degenerate_truncation_rejected(self):
        with pytest.raises(ValueError):
            decompose_circle_operator(
                OperatorMatrix(FourierBasis(0), np.ones((1, 1), dtype=complex))
            )


class TestClassifier:
    def test_plus_and_minus_hilbert_line(self):
        assert classify_pm_hilbert(h_line()).verdict == "plus-H"
        minus = OperatorMatrix(LBASIS, -h_line().entries)
        assert classify_pm_hilbert(minus).verdict == "minus-H"

    def test_plus_and_minus_hilbert_circle(self):
        assert classify_pm_hilbert(h_circle()).verdict == "plus-H"
        minus = OperatorMatrix(FBASIS, -h_circle().entries)
        assert classify_pm_hilbert(minus).verdict == "minus-H"

    def test_identity_fails_antisymmetry(self):
        out = classify_pm_hilbert(synthesize_commuting_operator(1.0, 0.0, LBASIS))
        assert out.verdict == "neither"
        assert "anti-symmetric" in out.reason

    def test_projection_is_neither(self):
        ident = synthesize_commuting_operator(1.0, 0.0, LBASIS).entries
        p_plus = OperatorMatrix(LBASIS, 0.5 * ident + 0.5j * h_line().entries)
        assert classify_pm_hilbert(p_plus).verdict == "neither"

    def test_position_multiplication_is_neither(self):
        T = OperatorMatrix(LBASIS, np.diag(LBASIS.grid().positions().astype(complex)))
        out = classify_pm_hilbert(T)
        assert out.verdict == "neither"
        assert "anti-symmetric" in out.reason

    @pytest.mark.parametrize("case, want", [
        ("zero", ("neither", "operator is zero")),
        ("i*H", ("neither", "not a real operator (defect 1.00e+00)")),
        ("i*I circle", ("neither", "not a real operator (defect 2.00e+00)")),
        ("I", ("neither", "not anti-symmetric (defect 2.00e+00)")),
        ("1e-5*H", ("neither", "kernel exhausts the space")),
        ("2*H", ("neither", "not norm-preserving off the kernel block (defect 3.00e+00)")),
        ("2*J", ("neither", "not norm-preserving off the kernel block (defect 3.00e+00)")),
        ("J", ("neither", "not scalar on the frequency blocks (residual 4.60e-01)")),
        ("1.5*H circle", ("neither", "block scalars (0-1.5j, 0+1.5j) are not -/+ i")),
        ("H", ("plus-H", None)),
        ("-H", ("minus-H", None)),
        ("H circle", ("plus-H", None)),
        ("-H circle", ("minus-H", None)),
    ])
    def test_verdicts_and_reasons_at_each_stage(self, case, want):
        # one operator failing at each stage (real, anti-symmetric, isometric
        # off the kernel, scalar, block scalars -/+ i), pinned to the last
        # character; J is a real rotation on sample pairs, so its Gram test
        # keeps every row
        lb, fb = LineBasis(16, -40.0, 5.0), FourierBasis(4)
        j = np.kron(np.eye(8), [[0.0, 1.0], [-1.0, 0.0]])

        def h(basis, c=1.0):
            return synthesize_commuting_operator(0.0, c, basis).entries

        basis, entries, tol = {
            "zero": (lb, np.zeros((16, 16)), 1e-8),
            "i*H": (lb, 1j * h(lb), 1e-8),
            "i*I circle": (fb, 1j * np.eye(9), 1e-8),
            "I": (lb, np.eye(16), 1e-8),
            "1e-5*H": (lb, 1e-5 * h(lb), 1e-8),
            "2*H": (lb, 2 * h(lb), 1e-8),
            "2*J": (lb, 2 * j, 1e-8),
            "J": (lb, j, 1e-8),
            "1.5*H circle": (fb, h(fb, 1.5), 2.0),
            "H": (lb, h(lb), 1e-8),
            "-H": (lb, -h(lb), 1e-8),
            "H circle": (fb, h(fb), 1e-8),
            "-H circle": (fb, -h(fb), 1e-8),
        }[case]
        out = classify_pm_hilbert(OperatorMatrix(basis, entries), tol)
        assert (out.verdict, out.reason) == want


def gram_first_classifier(T, tol=1e-8):
    """The classifier with the exact Gram test always run (before the
    certificate was added), as the oracle for the certified one."""
    E = T.entries
    tnorm = np.linalg.norm(E)
    if tnorm == 0.0:
        return HilbertClassification("neither", "operator is zero")
    d = _conjugation_defect(T, tnorm)
    if d > tol:
        return HilbertClassification("neither", f"not a real operator (defect {d:.2e})")
    herm = E.conj().T
    herm += E
    d = float(np.linalg.norm(herm) / tnorm)
    if d > tol:
        return HilbertClassification("neither", f"not anti-symmetric (defect {d:.2e})")
    work = _spectral_matrix(T)
    gram = work.conj().T @ work
    g_diag = np.abs(np.diagonal(gram))
    keep = g_diag > tol
    if not np.any(keep):
        return HilbertClassification("neither", "kernel exhausts the space")
    sub = gram if keep.all() else gram[np.ix_(keep, keep)]
    sub.reshape(-1)[:: sub.shape[0] + 1] -= 1.0
    d = float(np.linalg.norm(sub) / math.sqrt(sub.shape[0]))
    if d > tol:
        return HilbertClassification(
            "neither", f"not norm-preserving off the kernel block (defect {d:.2e})"
        )
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


def real_rotation(basis):
    """J: a real, anti-symmetric isometry that is not scalar on the blocks.
    On the line it rotates sample pairs; on the circle it rotates index
    pairs (1, 2), (3, 4), ... of k >= 1 and mirrors that onto k <= -1, which
    keeps the pairing c_{-k} = conj(c_k) of real signals."""
    if isinstance(basis, LineBasis):
        return np.kron(np.eye(basis.n // 2), [[0.0, 1.0], [-1.0, 0.0]])
    K = basis.K
    plus = np.kron(np.eye(K // 2), [[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((basis.dim, basis.dim))
    out[K + 1:, K + 1:] = plus
    out[:K, :K] = plus[::-1, ::-1]
    return out


def real_antisymmetric(basis, seed=7):
    """A random anti-symmetric operator that is real in the basis's sense,
    scaled to ||A||_F = sqrt(dim), the norm of an isometry."""
    rng = np.random.default_rng(seed)
    n = basis.dim
    if isinstance(basis, LineBasis):
        a = rng.normal(size=(n, n))
    else:  # conj(A[::-1, ::-1]) = A: real on the samples
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = b + np.conj(b[::-1, ::-1])
    a = a - a.conj().T
    return a * (math.sqrt(n) / np.linalg.norm(a))


ORACLE_BASES = [LineBasis(n, -40.0, 80.0 / n) for n in (16, 64, 256)] + [
    FourierBasis(K) for K in (4, 32)
]
# straddles the default tol = 1e-8 of every stage the perturbation reaches
EPSILONS = (1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-6)


@pytest.mark.parametrize("basis", ORACLE_BASES, ids=repr)
@pytest.mark.parametrize("case", ["H", "-H", "2H", "2J", "J"] + [f"H+{e:g}A" for e in EPSILONS])
def test_classifier_matches_exact_gram_oracle(basis, case):
    h = synthesize_commuting_operator(0.0, 1.0, basis).entries
    j = real_rotation(basis)
    if case.startswith("H+"):
        entries = h + float(case[2:-1]) * real_antisymmetric(basis)
    else:
        entries = {"H": h, "-H": -h, "2H": 2 * h, "2J": 2 * j, "J": j}[case]
    T = OperatorMatrix(basis, entries)
    assert classify_pm_hilbert(T) == gram_first_classifier(T)


def test_degenerate_basis_takes_the_exact_path():
    # LineBasis(2) has no s > 0 or s < 0 block: the Gram test refutes 2J,
    # and J, an isometry, reaches the decomposition, which refuses the basis
    basis = LineBasis(2, 0.0, 1.0)
    j = real_rotation(basis)
    T = OperatorMatrix(basis, 2 * j)
    assert classify_pm_hilbert(T) == gram_first_classifier(T)
    with pytest.raises(ValueError, match="degenerate basis"):
        classify_pm_hilbert(OperatorMatrix(basis, j))


@pytest.mark.parametrize("basis", [LineBasis(256, -40.0, 80.0 / 256), FourierBasis(32)], ids=repr)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_certificate_decides_pm_hilbert(monkeypatch, basis, sign):
    # +-H pass the isometry test on the O(n^2) certificate, not the Gram product
    certified = []
    real = symmetry._certified_decomposition

    def spy(*args):
        certified.append(real(*args))
        return certified[-1]

    monkeypatch.setattr(symmetry, "_certified_decomposition", spy)
    out = classify_pm_hilbert(synthesize_commuting_operator(0.0, sign, basis))
    assert out.verdict == ("plus-H" if sign > 0 else "minus-H")
    assert len(certified) == 1 and certified[0] is not None


@pytest.mark.parametrize("basis", [LineBasis(512, -40.0, 80.0 / 512), FourierBasis(128)], ids=repr)
def test_classifier_allocates_no_gram_matrix(basis):
    # the certified path holds one n x n complex array (the spectral matrix)
    # at a time; the Gram product would take three
    T = synthesize_commuting_operator(0.0, 1.0, basis)
    for scope in (contextlib.nullcontext, symmetry._scratch_scope):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with scope():
                assert classify_pm_hilbert(T).verdict == "plus-H"
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * basis.dim**2 * np.dtype(complex).itemsize


@pytest.mark.parametrize("basis", [LineBasis(100, -40.0, 0.8), LBASIS, FourierBasis(40)], ids=repr)
def test_antisymmetry_defect_is_the_unblocked_norm(basis):
    rng = np.random.default_rng(4)
    shape = (basis.dim, basis.dim)
    for E in (synthesize_commuting_operator(0.0, 1.0, basis).entries,
              rng.normal(size=shape) + 1j * rng.normal(size=shape)):
        tnorm = np.linalg.norm(E)
        herm = E.conj().T
        herm += E
        oracle = float(np.linalg.norm(herm) / tnorm)
        assert symmetry._antisymmetry_defect(E, tnorm).hex() == oracle.hex()


class TestPaddedSpectralMatrix:
    # the spectral matrix is the [:, :n] view of an (n, n + 1) array, so its
    # rows do not sit a power of two apart; every edit must reach that array

    @staticmethod
    def operator(n):
        rng = np.random.default_rng(n)
        E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return OperatorMatrix(LineBasis(n, -40.0, 80.0 / n), E)

    @pytest.mark.parametrize("scope", [contextlib.nullcontext, symmetry._scratch_scope])
    @pytest.mark.parametrize("n", [255, 256, 512, 1024])
    def test_equals_the_two_transforms_bit_for_bit(self, n, scope):
        T = self.operator(n)
        ref = np.fft.fft(np.fft.ifft(T.entries, axis=1), axis=0)
        with scope():
            W = _spectral_matrix(T)
            assert W.strides[0] == (n + 1) * W.itemsize
            assert np.array_equal(W.view(float), ref.view(float))

    @pytest.mark.parametrize("scope", [contextlib.nullcontext, symmetry._scratch_scope])
    def test_decomposition_edits_the_diagonal_in_place(self, scope):
        T = self.operator(N_OP)
        with scope():
            W = _spectral_matrix(T)
            before = np.diagonal(W).copy()
            assert np.shares_memory(symmetry._diagonal(W), W)
            dec = _decompose_blocks(W, T)
        s = sign_symbol(LBASIS.signed_indices())
        recon = np.where(s > 0, dec.k1, np.where(s < 0, dec.k2, dec.lam))
        assert np.array_equal(np.diagonal(W), before - recon)

    @pytest.mark.parametrize("scope", [contextlib.nullcontext, symmetry._scratch_scope])
    def test_a_refuted_certificate_restores_the_buffer(self, scope, monkeypatch):
        # a random operator passes the column gap test, and its residual
        # refutes the bound, so the diagonal is edited and then restored
        T = self.operator(N_OP)
        edited = []
        real = symmetry._decompose_blocks

        def spy(tilde, op):
            dec = real(tilde, op)
            edited.append(np.diagonal(tilde).copy())
            return dec

        monkeypatch.setattr(symmetry, "_decompose_blocks", spy)
        with scope():
            W = _spectral_matrix(T)
            saved = W.copy()
            tnorm = float(np.linalg.norm(T.entries))
            assert symmetry._certified_decomposition(W, T, tnorm, 1e-8) is None
            assert len(edited) == 1 and not np.array_equal(edited[0], np.diagonal(saved))
            assert np.array_equal(W.view(float), saved.view(float))

    def test_a_certified_decomposition_leaves_the_residual(self):
        T = h_line()
        with symmetry._scratch_scope():
            W = _spectral_matrix(T)
            assert abs(np.diagonal(W)).max() > 0.5  # the +-i of H
            tnorm = float(np.linalg.norm(T.entries))
            assert symmetry._certified_decomposition(W, T, tnorm, 1e-8) is not None
            assert abs(np.diagonal(W)).max() < 1e-12


class TestScratchScope:
    # a spectral matrix at N_OP takes N_OP^2 complex values
    SIZE = N_OP**2 * np.dtype(complex).itemsize

    def operators(self):
        return [synthesize_commuting_operator(lam, eta, LBASIS)
                for lam, eta in ((0.3, 0.7j), (-1.0 + 0.5j, 2.0), (0.0, 1.0))]

    @staticmethod
    def traced(fn):
        """(peak, end) traced memory of ``fn()`` above where it started."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - base, end - base

    def test_a_second_decomposition_in_a_scope_reuses_the_buffer(self):
        T = self.operators()[0]
        with symmetry._scratch_scope():
            decompose_line_operator(T)  # grows this thread's buffer
            peak, _ = self.traced(lambda: decompose_line_operator(T))
        assert peak < 0.5 * self.SIZE

    def test_buffers_are_dropped_when_the_scope_exits(self):
        T = self.operators()[0]

        def scoped():
            with symmetry._scratch_scope():
                with symmetry._scratch_scope():  # nested: the outer exit drops them
                    decompose_line_operator(T)
                assert symmetry._SCRATCH
                decompose_line_operator(T)

        peak, end = self.traced(scoped)
        assert peak > self.SIZE and end < 0.1 * self.SIZE
        assert symmetry._SCRATCH == {} and symmetry._SCRATCH_DEPTH == 0

    def test_buffers_are_dropped_when_a_check_raises(self, monkeypatch):
        from hilbertsym import verify

        T = self.operators()[0]

        def failing(cfg):
            decompose_line_operator(T)
            assert symmetry._SCRATCH  # run_verify opened a scope around the check
            raise RuntimeError("after a decomposition")

        record = ("x01-failing", "soundness", "raises after a decomposition")
        check = verify._Check("symmetry", failing, (record,), None)
        monkeypatch.setattr(verify, "_REGISTRY", [check])
        cfg = verify.SuiteConfig()
        report = []
        _, end = self.traced(lambda: report.append(verify.run_verify("symmetry", cfg)))
        (rec,) = report[0].records
        assert not rec.passed and rec.note == "error: after a decomposition"
        assert end < 0.1 * self.SIZE
        assert symmetry._SCRATCH == {} and symmetry._SCRATCH_DEPTH == 0

    def test_no_buffer_is_kept_outside_a_scope(self):
        T = self.operators()[0]
        first = _spectral_matrix(T)
        assert not np.shares_memory(first, _spectral_matrix(T))
        _, end = self.traced(lambda: decompose_line_operator(T))
        assert end < 0.1 * self.SIZE
        assert symmetry._SCRATCH == {}

    def test_threads_in_one_scope_get_their_own_buffers(self):
        ops = self.operators()
        serial = [decompose_line_operator(T) for T in ops]
        fresh = [_spectral_matrix(T) for T in ops[:2]]
        barrier = threading.Barrier(2, timeout=60)
        held, decs = [None, None], [None, None]

        def work(i):
            held[i] = _spectral_matrix(ops[i])
            barrier.wait()  # both threads hold their buffer at once
            assert np.array_equal(held[i], fresh[i])
            decs[i] = [decompose_line_operator(T) for T in ops]

        with symmetry._scratch_scope():
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not np.shares_memory(held[0], held[1])
        assert decs[0] == serial and decs[1] == serial


class TestRotationCommutant:
    def scales(self):
        return [
            RationalScale(1, 1, 0.9),
            RationalScale(1, 1, 2.3),
            RationalScale(2, 1, 0.0),
            RationalScale(1, 2, 0.0),
        ]

    def test_scalar_operator(self):
        T = OperatorMatrix(FBASIS, 7.0 * np.eye(FBASIS.dim, dtype=complex))
        report = rotation_commutant_analysis(T, self.scales())
        assert report.diagonal_defect == 0.0
        assert report.orbit_spread == 0.0
        assert report.rotation_defect == 0.0

    def test_circular_hilbert_is_orbit_constant(self):
        report = rotation_commutant_analysis(h_circle(), self.scales())
        assert report.diagonal_defect <= 1e-15
        assert report.orbit_spread <= 1e-15

    def test_orbit_breaking_perturbation_flagged(self):
        K = FBASIS.K
        diag = np.ones(2 * K + 1, dtype=complex)
        diag[1 + K] = 2.0  # k = 1; its orbit contains k = 2
        report = rotation_commutant_analysis(OperatorMatrix(FBASIS, np.diag(diag)), self.scales())
        assert report.orbit_spread >= 1.0

    def test_off_diagonal_detected(self):
        E = np.diag(np.ones(FBASIS.dim, dtype=complex))
        E[3, 5] = 0.5
        report = rotation_commutant_analysis(OperatorMatrix(FBASIS, E), self.scales())
        assert report.diagonal_defect > 0.01
        assert report.rotation_defect > 0.01

    def test_orbit_constant_operator_is_not_certified_scalar(self):
        # constant on each orbit {m 2^j} of the suite's scale set but with 64
        # distinct values on k >= 1: every defect is zero, and only the
        # component count shows the operator is not scalar there
        K = 128
        k = np.abs(np.arange(-K, K + 1))
        diag = (k // np.maximum(k & -k, 1)).astype(complex)  # the odd part m of |k|
        assert len(np.unique(diag[K + 1:])) == 64
        report = rotation_commutant_analysis(
            OperatorMatrix(FourierBasis(K), np.diag(diag)), _scalarity_scales()
        )
        assert report.diagonal_defect == report.orbit_spread == report.rotation_defect == 0.0
        assert report.orbit_components == 64

    def test_one_orbit_component_under_coprime_dilations(self):
        scales = self.scales()[:2] + [RationalScale(2, 1, 0.0), RationalScale(1, 3, 0.0)]
        report = rotation_commutant_analysis(h_circle(4), scales)
        # 1 - 2 - 4 and 3 -> 1 join every index of [1, 4]
        assert report.orbit_components == 1
        assert rotation_commutant_analysis(h_circle(4), self.scales()).orbit_components == 2

    def test_classes_join_through_a_common_multiple(self):
        # 2 and 3 are joined only through 12 = 4*3 = 6*2: {1, 4, 6},
        # {2, 3, 8, 12} and the five singletons 5, 7, 9, 10, 11
        scales = self.scales()[:2] + [RationalScale(4, 1, 0.0), RationalScale(1, 6, 0.0)]
        K = 12
        diag = np.zeros(2 * K + 1, dtype=complex)
        diag[K + np.array([2, 3, 8, 12])] = 1.0
        report = rotation_commutant_analysis(OperatorMatrix(FourierBasis(K), np.diag(diag)), scales)
        assert report.orbit_components == 7
        assert report.orbit_spread == 0.0
        diag[K + 3] = 3.0
        report = rotation_commutant_analysis(OperatorMatrix(FourierBasis(K), np.diag(diag)), scales)
        assert report.orbit_spread == 2.0

    def test_zero_operator_reports_its_components(self):
        T = OperatorMatrix(FBASIS, np.zeros((FBASIS.dim, FBASIS.dim)))
        report = rotation_commutant_analysis(T, self.scales())
        assert (report.diagonal_defect, report.orbit_spread, report.rotation_defect) == (0, 0, 0)
        assert report.orbit_components == 16  # the odd indices of [1, 32]

    def test_missing_generators_rejected(self):
        T = h_circle()
        with pytest.raises(ValueError, match="rotation"):
            rotation_commutant_analysis(T, [RationalScale(2, 1, 0.0), RationalScale(1, 2, 0.0)])
        with pytest.raises(ValueError, match="dilation"):
            rotation_commutant_analysis(
                T, [RationalScale(1, 1, 0.3), RationalScale(1, 1, 1.1)]
            )


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 127])
def test_line_synthesis_equals_dense_spectral_conjugation(n):
    # reference: F^-1 diag(symbol) F built from the full DFT matrix
    basis = LineBasis(n, -3.0, 6.0 / n)
    lam, eta = 0.3 - 0.7j, 1.1 + 0.4j
    ks = np.arange(n)
    ks[ks > n // 2] -= n
    sgn = np.sign(ks).astype(complex)
    if n % 2 == 0:
        sgn[n // 2] = 0.0
    F = np.fft.fft(np.eye(n), axis=0)
    dense = np.fft.ifft((lam - 1j * eta * sgn)[:, None] * F, axis=0)
    T = synthesize_commuting_operator(lam, eta, basis).entries
    np.testing.assert_allclose(T, dense, rtol=0, atol=1e-14 * (abs(lam) + abs(eta)) * n)

import dataclasses
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from hilbertsym import symmetry
from hilbertsym import (
    AffineElement,
    CircleSignal,
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
from hilbertsym.signals import sign_symbol, stack_signals
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
            (lambda: FourierBasis(True), "K"),
            (lambda: LineBasis(4, 0.0, 0.0), "dx"),
            (lambda: LineBasis(4, 0.0, -0.5), "dx"),
            (lambda: LineBasis(1, 0.0, 0.5), "n"),
            (lambda: LineBasis(2.5, 0.0, 0.5), "n"),
            (lambda: LineBasis(8.0, 0.0, 0.5), "n"),
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

    @pytest.mark.parametrize("layout", [np.asarray, np.asfortranarray], ids=["C", "F"])
    def test_the_stored_norm_is_the_fixed_order_sum(self, layout):
        rng = np.random.default_rng(3)
        E = layout(rng.normal(size=(65, 65)) + 1j * rng.normal(size=(65, 65)))
        T = OperatorMatrix(FBASIS, E)
        assert T.frobenius_norm.hex() == symmetry._frobenius(T.entries).hex()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf),
                                     complex(1, np.nan)])
    def test_non_finite_entries_are_rejected(self, bad):
        E = np.ones((65, 65), dtype=complex)
        E[3, 7] = bad
        with pytest.raises(ValueError, match="^operator entries must be finite$"):
            OperatorMatrix(FBASIS, E)

    def test_finite_entries_whose_squares_overflow_are_accepted(self):
        # the sum of squares overflows from entries of about 1e154; the norm
        # is inf only when it is not representable
        T = OperatorMatrix(FBASIS, np.full((65, 65), 1e200))
        assert T.frobenius_norm == pytest.approx(65e200, rel=1e-15)
        assert OperatorMatrix(FBASIS, np.full((65, 65), 1e307)).frobenius_norm == np.inf

    @pytest.mark.parametrize("layout", [np.asarray, np.asfortranarray], ids=["C", "F"])
    def test_an_overflowing_sum_is_taken_again_at_a_power_of_two_scale(self, layout):
        # scaling by 2^600 is exact, so the rescaled sum is the plain one
        # scaled, bit for bit
        rng = np.random.default_rng(5)
        E = layout(rng.normal(size=(65, 65)) + 1j * rng.normal(size=(65, 65)))
        big = symmetry._frobenius(E * 2.0**600)
        assert big.hex() == (symmetry._frobenius(E) * 2.0**600).hex()

    def test_the_norm_field_is_not_compared_or_shown(self):
        T = h_circle()
        assert repr(T) == f"OperatorMatrix(basis={T.basis!r}, entries={T.entries!r})"
        assert [f.name for f in dataclasses.fields(T) if f.compare] == ["basis", "entries"]
        assert T == T

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
        assert report.defects.shape == (1, 3)

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


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
@pytest.mark.parametrize("basis", [LineBasis(16, -40.0, 5.0), LineBasis(256, -40.0, 80.0 / 256),
                                   FourierBasis(4)], ids=repr)
def test_residuals_whose_sums_of_squares_overflow_are_relative(basis, scale):
    # the defect rows are summed apart from ||T||_F and overflow with it;
    # they are taken at a power-of-two scale as ||T||_F is, so the relative
    # residuals are those of the unit-scale operator (1e200*(0.3I + 0.7H)
    # on the line read max_residual inf while they were not); on the line
    # both for the circulant, read from its symbol, and for it nudged by
    # one ulp after scaling, which takes the dense path
    line = isinstance(basis, LineBasis)
    E = (synthesize_commuting_operator(0.3, 0.7, basis) if line else random_operator(basis)).entries
    decompose = decompose_line_operator if line else decompose_circle_operator
    for edit in (np.asarray, nudged) if line else (np.asarray,):
        unit, big = (decompose(OperatorMatrix(basis, edit(c * E))) for c in (1.0, scale))
        for name in ("residual_plus", "residual_minus", "residual_zero"):
            assert abs(getattr(big, name) - getattr(unit, name)) <= 1e-15


def test_residuals_relative_to_an_unrepresentable_norm_are_nan():
    # ||T||_F = 65 * 3e306 exceeds the float range, so no residual relative
    # to it is known; a residual of 0 would pass any tolerance
    T = OperatorMatrix(FBASIS, np.full((65, 65), 3e306))
    assert T.frobenius_norm == np.inf
    dec = decompose_circle_operator(T)
    assert all(map(math.isnan, (dec.residual_plus, dec.residual_minus, dec.residual_zero)))


def nudged(E):
    """A copy of E, in its memory order, with entry (1, 0) moved by one ulp:
    a multiplier's copy stops being one (on the circle, a diagonal gains
    one subnormal off-diagonal entry), so it takes the dense paths."""
    E = np.array(E, dtype=complex)
    E[1, 0] = complex(np.nextafter(E[1, 0].real, np.inf), E[1, 0].imag)
    return E


DECOMPOSITION_BASES = [LineBasis(n, -40.0, 80.0 / n) for n in (3, 16, 255, 256, 512, 1024)]


def decomposition_cases(basis):
    """The operators of the line decomposition tests above on ``basis``: H,
    I, 3P+ + 5P-, lam*I + eta*H for random scalars (each a multiplier), then
    a random operator."""
    ident = synthesize_commuting_operator(1.0, 0.0, basis).entries
    h = synthesize_commuting_operator(0.0, 1.0, basis).entries
    rng = np.random.default_rng(11)
    lam, eta = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    return [h, ident, 3.0 * (0.5 * ident + 0.5j * h) + 5.0 * (0.5 * ident - 0.5j * h),
            synthesize_commuting_operator(lam, eta, basis).entries, random_operator(basis).entries]


def assert_decompositions_agree(a, b):
    for name in ("k1", "k2", "lam", "eta", "residual_plus", "residual_minus", "residual_zero"):
        assert abs(getattr(a, name) - getattr(b, name)) <= 1e-15, name


@pytest.fixture
def spectral_calls(monkeypatch):
    """The operators the spectral matrix is built for, in call order."""
    calls = []
    real = symmetry._spectral_matrix
    monkeypatch.setattr(symmetry, "_spectral_matrix", lambda op: calls.append(op) or real(op))
    return calls


@pytest.mark.parametrize("layout", [np.asarray, np.asfortranarray], ids=["C", "F"])
@pytest.mark.parametrize("basis", DECOMPOSITION_BASES, ids=repr)
def test_the_multiplier_path_matches_the_dense_one(spectral_calls, basis, layout):
    # a circulant is read from its symbol, any other operator from its
    # spectral matrix; the reference is the block decomposition of the
    # spectral matrix (the circle has only that path)
    cases = decomposition_cases(basis)
    for k, E in enumerate(cases):
        T = OperatorMatrix(basis, layout(E))
        spectral_calls.clear()
        fast = decompose_line_operator(T)
        assert len(spectral_calls) == (k == len(cases) - 1)
        assert_decompositions_agree(fast, _decompose_blocks(_spectral_matrix(T), T))


@pytest.mark.parametrize("basis", DECOMPOSITION_BASES, ids=repr)
def test_an_operator_one_ulp_off_takes_the_dense_path(spectral_calls, basis):
    for E in decomposition_cases(basis)[:-1]:
        spectral_calls.clear()
        fast = decompose_line_operator(OperatorMatrix(basis, E))
        assert not spectral_calls
        dense = decompose_line_operator(OperatorMatrix(basis, nudged(E)))
        assert len(spectral_calls) == 1
        assert_decompositions_agree(fast, dense)


def test_a_degenerate_basis_is_refused_on_either_path(spectral_calls):
    T = OperatorMatrix(LineBasis(2, 0.0, 1.0), np.eye(2))
    with pytest.raises(ValueError, match="degenerate basis") as fast:
        decompose_line_operator(T)
    assert not spectral_calls
    with pytest.raises(ValueError) as dense:
        _decompose_blocks(_spectral_matrix(T), T)
    assert str(dense.value) == str(fast.value)


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
        ("H, tol 0", ("neither", "not a real operator (defect 4.20e-17)")),
        ("I, tol 0", ("neither", "not anti-symmetric (defect 2.00e+00)")),
        ("H, tol inf", ("neither", "kernel exhausts the space")),
        ("i*I, tol inf", ("neither", "kernel exhausts the space")),
    ])
    @pytest.mark.parametrize("form", ["nudged", "as built"])
    def test_verdicts_and_reasons_at_each_stage(self, case, want, form):
        # one operator failing at each stage (real, anti-symmetric, isometric
        # off the kernel, scalar, block scalars -/+ i), pinned to the last
        # character; J is a real rotation on sample pairs, so its Gram test
        # keeps every row; tol = 0 and tol = inf are valid tolerances.  Each
        # is classified by the exact dense tests one ulp off (nudged) and,
        # but for J and 2J, as the multiplier it is, from its symbol: the
        # same reasons, but that H at tol 0 reads the roundoff of the FFT of
        # its first column instead of that of its entries
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
            "H, tol 0": (lb, h(lb), 0.0),
            "I, tol 0": (lb, np.eye(16), 0.0),
            "H, tol inf": (lb, h(lb), math.inf),
            "i*I, tol inf": (lb, 1j * np.eye(16), math.inf),
        }[case]
        T = OperatorMatrix(basis, nudged(entries) if form == "nudged" else entries)
        assert (T._symbol is None) == (form == "nudged" or case in ("J", "2*J"))
        if form == "as built" and case == "H, tol 0":
            want = ("neither", "not a real operator (defect 2.10e-17)")
        out = classify_pm_hilbert(T, tol)
        assert (out.verdict, out.reason) == want

    @pytest.mark.parametrize("basis", [LineBasis(16, -40.0, 5.0), FourierBasis(4)], ids=repr)
    def test_a_synthesized_pm_hilbert_passes_at_tol_zero(self, basis):
        # its symbol is exactly -/+i sgn, so every defect is 0
        for eta, want in ((1.0, "plus-H"), (-1.0, "minus-H")):
            T = synthesize_commuting_operator(0.0, eta, basis)
            assert classify_pm_hilbert(T, 0.0) == HilbertClassification(want)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-8])
    @pytest.mark.parametrize("case", ["H", "I", "i*I", "diag(x)"])
    def test_a_nan_or_negative_tol_is_rejected(self, case, tol):
        entries = {"H": h_line().entries, "I": np.eye(N_OP), "i*I": 1j * np.eye(N_OP),
                   "diag(x)": np.diag(LBASIS.grid().positions())}[case]
        with pytest.raises(ValueError, match=r"^tol must be a non-negative number, got "):
            classify_pm_hilbert(OperatorMatrix(LBASIS, entries), tol)


def gram_first_classifier(T, tol=1e-8):
    """The classifier with every exact test run on the entries, as the
    oracle for both paths: the dense one must match it exactly, the symbol
    one in its verdict and failed stage (:func:`assert_same_stage`).  It
    reads ||T||_F from T, takes a norm whose sum of squares overflows again
    at a power-of-two scale, and fails a NaN defect, as the classifier
    does."""
    E = T.entries
    tnorm = T.frobenius_norm
    if tnorm == 0.0:
        return HilbertClassification("neither", "operator is zero")
    d = _conjugation_defect(T, tnorm)
    if not d <= tol:
        return HilbertClassification("neither", f"not a real operator (defect {d:.2e})")
    herm = E.conj().T
    herm += E
    norm = np.linalg.norm(herm)
    d = float((symmetry._frobenius(herm) if norm == np.inf else norm) / tnorm)
    if not d <= tol:
        return HilbertClassification("neither", f"not anti-symmetric (defect {d:.2e})")
    work = _spectral_matrix(T)
    gram = work.conj().T @ work
    g_diag = np.abs(np.diagonal(gram))
    keep = g_diag > tol
    if not np.any(keep):
        return HilbertClassification("neither", "kernel exhausts the space")
    sub = gram if keep.all() else gram[np.ix_(keep, keep)]
    sub.reshape(-1)[:: sub.shape[0] + 1] -= 1.0
    d = symmetry._frobenius(sub) / math.sqrt(sub.shape[0])
    if not d <= tol:
        return HilbertClassification(
            "neither", f"not norm-preserving off the kernel block (defect {d:.2e})"
        )
    dec = _decompose_blocks(work, T)
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


def assert_same_stage(sym, dense):
    """The verdicts are equal and the reasons name the same failed test;
    only the numbers in them may differ (roundoff, or a Gram defect of inf
    where the dense product W^H W overflows to NaN)."""
    assert sym.verdict == dense.verdict
    masked = [r and re.sub(r"\(.*\)", "(...)", r) for r in (sym.reason, dense.reason)]
    assert masked[0] == masked[1]


def oracle_checks(basis, entries, tol=1e-8):
    """Classify ``entries`` one ulp off, by the dense tests, against the
    oracle; and, if they are a multiplier, from their symbol against the
    oracle on the same entries.  Returns both classifications (the second
    None for a non-multiplier)."""
    dense = OperatorMatrix(basis, nudged(entries))
    assert dense._symbol is None
    out = classify_pm_hilbert(dense, tol)
    assert out == gram_first_classifier(dense, tol)
    T = OperatorMatrix(basis, entries)
    if T._symbol is None:
        return out, None
    sym = classify_pm_hilbert(T, tol)
    assert_same_stage(sym, gram_first_classifier(T, tol))
    return out, sym


def real_rotation(basis):
    """J: a real, anti-symmetric isometry (off the last sample of an odd
    line grid) that is not scalar on the blocks.  On the line it rotates
    sample pairs; on the circle it rotates index pairs (1, 2), (3, 4), ...
    of k >= 1 and mirrors that onto k <= -1, which keeps the pairing
    c_{-k} = conj(c_k) of real signals."""
    if isinstance(basis, LineBasis):  # an odd n leaves the last sample in the kernel
        out = np.zeros((basis.n, basis.n))
        pairs = basis.n // 2 * 2
        out[:pairs, :pairs] = np.kron(np.eye(basis.n // 2), [[0.0, 1.0], [-1.0, 0.0]])
        return out
    K = basis.K
    plus = np.kron(np.eye(K // 2), [[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((basis.dim, basis.dim))
    out[K + 1:, K + 1:] = plus
    out[:K, :K] = plus[::-1, ::-1]
    return out


def real_antisymmetric(basis, seed=7, sign=-1.0):
    """A random anti-symmetric operator that is real in the basis's sense,
    scaled to ||A||_F = sqrt(dim), the norm of an isometry; with sign=+1,
    a symmetric (Hermitian) one."""
    rng = np.random.default_rng(seed)
    n = basis.dim
    if isinstance(basis, LineBasis):
        a = rng.normal(size=(n, n))
    else:  # conj(A[::-1, ::-1]) = A: real on the samples
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = b + np.conj(b[::-1, ::-1])
    a = a + sign * a.conj().T
    return a * (math.sqrt(n) / np.linalg.norm(a))


def kernel_rows(basis):
    """P0 A for P0 the projection on the zero block of the sign symbol (the
    mean and Nyquist rows on the line, k = 0 on the circle): a real operator
    with all its mass on those rows of the frequency basis, scaled to
    ||P0 A||_F = sqrt(dim)."""
    mask = (sign_symbol(basis.signed_indices()) == 0).astype(complex)
    if isinstance(basis, LineBasis):
        p0 = symmetry._circulant(np.fft.ifft(mask))
    else:
        p0 = np.diag(mask)
    a = p0 @ real_antisymmetric(basis)
    return a * (math.sqrt(basis.dim) / np.linalg.norm(a))


ORACLE_BASES = [LineBasis(n, -40.0, 80.0 / n) for n in (3, 16, 64, 256)] + [
    FourierBasis(K) for K in (4, 32)
]
# straddles the default tol = 1e-8 of every stage the perturbation reaches
EPSILONS = (1e-12, 1e-10, 1e-9, 3e-9, 6e-9, 1e-8, 3e-8, 1e-6)


def zero_diagonal(a):
    a = a.copy()
    np.fill_diagonal(a, 0.0)
    return a


@pytest.mark.parametrize("basis", ORACLE_BASES, ids=repr)
@pytest.mark.parametrize(
    "case",
    ["H", "-H", "2H", "2J", "J", "I"]
    + [f"H+{e:g}{kind}" for kind in ("A", "S", "Z", "I", "iA", "K") for e in EPSILONS]
    + [f"(1+{delta:g})H" for delta in (1e-9, 2.5e-9, 3e-9, 5e-9)],
)
def test_classifier_matches_exact_gram_oracle(basis, case):
    # H + eps*A stays real and anti-symmetric; H + eps*S (S real symmetric)
    # breaks anti-symmetry, and so do Z (S with a zero diagonal) and I;
    # H + i*eps*A breaks realness; K puts mass on the mean and Nyquist rows
    # (k = 0 on the circle); each by about eps.  (1 + delta)H straddles
    # the Gram defect bound 2 delta + delta^2 <= tol.  H, its multiples and
    # H + eps*I are multipliers, classified from their symbol too
    h = synthesize_commuting_operator(0.0, 1.0, basis).entries
    j = real_rotation(basis)
    if case.startswith("H+"):
        eps = case[2:].rstrip("AiSZIK")
        perturbation = {
            "A": real_antisymmetric(basis),
            "S": real_antisymmetric(basis, sign=1.0),
            "Z": zero_diagonal(real_antisymmetric(basis, sign=1.0)),
            "I": np.eye(basis.dim),
            "iA": 1j * real_antisymmetric(basis),
            "K": kernel_rows(basis),
        }[case[2 + len(eps):]]
        entries = h + float(eps) * perturbation
    elif case.startswith("(1+"):
        entries = (1.0 + float(case[3:-2])) * h
    else:
        entries = {"H": h, "-H": -h, "2H": 2 * h, "2J": 2 * j, "J": j,
                   "I": np.eye(basis.dim)}[case]
    _, sym = oracle_checks(basis, entries)
    multiplier = case in ("H", "-H", "2H") or case.startswith("(1+") or case.endswith("I")
    assert (sym is not None) == multiplier


@pytest.mark.parametrize("basis", ORACLE_BASES, ids=repr)
@pytest.mark.parametrize("tol", [0.3, 0.6])
def test_classifier_matches_the_oracle_across_the_keep_set_gap(basis, tol):
    # tolerances far above roundoff, where only the Gram test's keep set
    # (columns of squared norm above tol) and the block scalars' fixed 1e-6
    # bound decide; (1 + 1e-3)H fails only on its block scalars
    h = synthesize_commuting_operator(0.0, 1.0, basis).entries
    for entries in (h, -h, (1 + 1e-8) * h, (1 + 1e-3) * h, 1.2 * h, 2 * h,
                    h + 0.1 * real_antisymmetric(basis), real_rotation(basis),
                    np.eye(basis.dim)):
        oracle_checks(basis, entries, tol)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("basis", [LineBasis(16, -40.0, 5.0), FourierBasis(4)], ids=repr)
@pytest.mark.parametrize("scale", [1e100, 1e100j, 1e160, 1e200, 1e200j])
def test_an_operator_whose_norm_overflows_matches_the_oracle(basis, scale):
    # from 1e100 the Gram defect overflows, from about 1e154 the sums of
    # squares of ||T||_F and of the defects of (i) and (ii) do; those are
    # taken again at a power-of-two scale, so (i) and (ii) fail as they do
    # on the operator scaled to modulus 1, and scaled-up H fails the Gram
    # test, whose product W^H W holds inf - inf = NaN from about 1e154
    # (read from the symbol, |s|^2 - 1 is inf there)
    h = synthesize_commuting_operator(0.0, 1.0, basis).entries
    z = zero_diagonal(real_antisymmetric(basis, sign=1.0))
    outs, syms = [], []
    for entries in (h, h + z, h + 1e-6 * z, np.eye(basis.dim)):
        out, sym = oracle_checks(basis, scale * entries)
        outs.append(out)
        syms.append(sym)
        unit = classify_pm_hilbert(OperatorMatrix(basis, nudged(scale / abs(scale) * entries)))
        if unit.verdict == "neither":
            assert outs[-1] == unit
        else:
            assert outs[-1].verdict == "neither"
            assert not outs[-1].reason.startswith(("not a real", "not anti-symmetric"))
    # H and I at each scale, pinned: while a NaN defect passed its test,
    # 1e160*H and 1e200*H passed the Gram test and read "block scalars (...)
    # are not -/+ i" or "not scalar on the frequency blocks (residual inf)",
    # and 1e100*H read "(defect inf)"; before ||T||_F was kept finite,
    # 1e200j*I read "block scalars (0+1e+200j, 0+1e+200j) are not -/+ i"
    gram = "not norm-preserving off the kernel block (defect {})"
    unreal = "not a real operator (defect {})".format(
        "1.00e+00" if isinstance(basis, LineBasis) else "2.00e+00")
    want_h = {1e100: gram.format("1.00e+200"), 1e160: gram.format("nan"),
              1e200: gram.format("nan")}.get(scale, unreal)
    want_i = "not anti-symmetric (defect 2.00e+00)" if isinstance(scale, float) else unreal
    assert syms[0] == HilbertClassification("neither", want_h.replace("nan", "inf"))
    assert syms[-1] == HilbertClassification("neither", want_i)
    # one ulp at 1e100 is 1e84: on the line the nudge leaves the mean and
    # Nyquist columns of W a squared norm near 1e168, above the keep
    # threshold, so 16 columns are kept, not 14: sqrt(14/16) 1e200
    if scale == 1e100 and isinstance(basis, LineBasis):
        want_h = gram.format("9.35e+199")
    assert outs[0] == HilbertClassification("neither", want_h)
    assert outs[-1] == HilbertClassification("neither", want_i)


def test_degenerate_basis_takes_the_exact_path():
    # LineBasis(2) has no s > 0 or s < 0 block: the Gram test refutes 2J,
    # and J, an isometry, reaches the decomposition, which refuses the basis
    basis = LineBasis(2, 0.0, 1.0)
    j = real_rotation(basis)
    T = OperatorMatrix(basis, 2 * j)
    assert classify_pm_hilbert(T) == gram_first_classifier(T)
    with pytest.raises(ValueError, match="degenerate basis"):
        classify_pm_hilbert(OperatorMatrix(basis, j))


MULTIPLIER_BASES = [LineBasis(n, -40.0, 80.0 / n) for n in (255, 256, 512, 1024)] + [
    FourierBasis(K) for K in (32, 128)
]


def multiplier(basis, case):
    """H, -H or I synthesized, or -H as a copy of the negated entries of H
    (as a loaded operator is built)."""
    lam, eta = (1.0, 0.0) if case == "I" else (0.0, -1.0 if case == "-H" else 1.0)
    h = synthesize_commuting_operator(lam, eta, basis)
    return OperatorMatrix(basis, -h.entries) if case == "negated H" else h


@pytest.mark.parametrize("basis", MULTIPLIER_BASES, ids=repr)
@pytest.mark.parametrize("case", ["H", "-H", "negated H", "I"])
def test_a_multiplier_is_classified_from_its_symbol(monkeypatch, basis, case):
    # no realness pass over the entries, no pass over T^H + T, no change of
    # basis, and less than a tenth of an n x n array allocated
    T = multiplier(basis, case)

    def exact(*args):
        raise AssertionError("an exact test ran")

    for name in ("_conjugation_defect", "_antisymmetry_defect", "_spectral_matrix"):
        monkeypatch.setattr(symmetry, name, exact)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = classify_pm_hilbert(T)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.verdict == {"H": "plus-H", "I": "neither"}.get(case, "minus-H")
    assert peak < 0.1 * basis.dim**2 * np.dtype(complex).itemsize


@pytest.mark.parametrize("basis", [LineBasis(64, -40.0, 1.25), FourierBasis(16)], ids=repr)
def test_either_memory_order_gets_the_same_symbol(basis):
    h = synthesize_commuting_operator(0.0, 1.0, basis).entries
    a = real_antisymmetric(basis)
    for entries, is_multiplier in ((h, True), (-h, True), (h + 1e-9 * a, False),
                                   (h + 1e-7 * a, False)):
        c = OperatorMatrix(basis, np.ascontiguousarray(entries))
        f = OperatorMatrix(basis, np.asfortranarray(entries))
        assert f.entries.flags.c_contiguous and f.entries.tobytes() == c.entries.tobytes()
        if is_multiplier:  # bit for bit
            assert c._symbol.tobytes() == f._symbol.tobytes()
        else:
            assert c._symbol is None and f._symbol is None
        assert classify_pm_hilbert(f) == classify_pm_hilbert(c) == gram_first_classifier(c)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pm_hilbert_at_n_1024_takes_no_exact_pass(monkeypatch, sign):
    # neither the exact pass of (ii) nor a BLAS norm of an n x n array
    basis = LineBasis(1024, -40.0, 80.0 / 1024)
    T = synthesize_commuting_operator(0.0, sign, basis)
    norm_shapes = []
    real_norm = np.linalg.norm

    def norm(x, *args, **kwargs):
        norm_shapes.append(np.shape(x))
        return real_norm(x, *args, **kwargs)

    def exact(*args):
        raise AssertionError("the exact anti-symmetry test ran")

    monkeypatch.setattr(np.linalg, "norm", norm)
    monkeypatch.setattr(symmetry, "_antisymmetry_defect", exact)
    out = classify_pm_hilbert(T)
    assert out.verdict == ("plus-H" if sign > 0 else "minus-H")
    assert not [shape for shape in norm_shapes if len(shape) == 2]


@pytest.mark.parametrize("case", ["I", "diag(x)"])
def test_a_real_diagonal_goes_straight_to_the_exact_test(monkeypatch, case):
    # I and diag(x) fail test (ii), which runs before the change of basis
    # (I, a multiplier, on its symbol)
    def no_fft(op):
        raise AssertionError("the spectral matrix was built")

    monkeypatch.setattr(symmetry, "_spectral_matrix", no_fft)
    diag = np.ones(N_OP) if case == "I" else LBASIS.grid().positions()
    out = classify_pm_hilbert(OperatorMatrix(LBASIS, np.diag(diag.astype(complex))))
    assert out.verdict == "neither" and out.reason.startswith("not anti-symmetric (defect 2.00")


@pytest.mark.parametrize("basis", [LBASIS, FourierBasis(128)], ids=repr)
def test_the_engine_takes_no_whole_matrix_blas_norm(monkeypatch, basis):
    # every matrix norm of the exact tests, the decompositions and the
    # rotation analysis is a fixed-order row sum; BLAS norms take vectors
    # or rows only
    whole = []
    real_norm = np.linalg.norm

    def norm(x, ord=None, axis=None, keepdims=False):
        if axis is None and np.ndim(x) == 2:
            whole.append(np.shape(x))
        return real_norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", norm)
    line = isinstance(basis, LineBasis)
    x = basis.grid().positions() if line else basis.signed_indices()
    h = synthesize_commuting_operator(0.0, 1.0, basis).entries
    verdicts = []
    for entries in (np.eye(basis.dim), np.diag(x), real_rotation(basis), 2 * h):
        T = OperatorMatrix(basis, entries)
        verdicts.append(classify_pm_hilbert(T).verdict)
        (decompose_line_operator if line else decompose_circle_operator)(T)
        if not line:
            rotation_commutant_analysis(T, _scalarity_scales())
    assert verdicts == ["neither"] * 4 and not whole


@pytest.mark.parametrize("basis", [LBASIS, FourierBasis(128)], ids=repr)
def test_the_antisymmetry_defect_takes_one_matrix(basis):
    # E^H + E is the one n x n temporary (operator entries are C-ordered)
    rng = np.random.default_rng(4)
    shape = (basis.dim, basis.dim)
    E = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = symmetry._antisymmetry_defect(E, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * basis.dim**2 * np.dtype(complex).itemsize
    assert d.hex() == symmetry._frobenius(E.conj().T + E).hex()


@pytest.mark.parametrize("layout", [np.asarray, np.asfortranarray], ids=["C", "F"])
def test_the_conjugation_defect_reads_im_t_in_place(layout):
    # (i) on the line is ||Im T||_F, summed from the strided float view of
    # the entries: the float of a contiguous copy of Im T, without the copy
    rng = np.random.default_rng(4)
    E = rng.normal(size=(N_OP, N_OP)) + 1j * rng.normal(size=(N_OP, N_OP))
    T = OperatorMatrix(LBASIS, layout(E))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = _conjugation_defect(T, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * N_OP**2 * np.dtype(float).itemsize
    assert d.hex() == symmetry._frobenius(np.ascontiguousarray(E.imag)).hex()


class TestPaddedSpectralMatrix:
    # the spectral matrix is the [:, :n] view of an (n, n + 1) array, so its
    # rows do not sit a power of two apart; every edit must reach that array

    @staticmethod
    def operator(n):
        rng = np.random.default_rng(n)
        E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return OperatorMatrix(LineBasis(n, -40.0, 80.0 / n), E)

    @pytest.mark.parametrize("n", [255, 256, 512, 1024])
    def test_equals_the_two_transforms_bit_for_bit(self, n):
        T = self.operator(n)
        ref = np.fft.fft(np.fft.ifft(T.entries, axis=1), axis=0)
        W = _spectral_matrix(T)
        assert W.strides[0] == (n + 1) * W.itemsize
        assert np.array_equal(W.view(float), ref.view(float))

    def test_the_circle_copy_is_padded_too(self):
        T = h_circle()
        W = _spectral_matrix(T)
        assert W.strides[0] == (T.dim + 1) * W.itemsize
        assert np.array_equal(W.view(float), T.entries.view(float))

    def test_decomposition_edits_the_diagonal_in_place(self):
        T = self.operator(N_OP)
        W = _spectral_matrix(T)
        before = np.diagonal(W).copy()
        assert np.shares_memory(symmetry._diagonal(W), W)
        dec = _decompose_blocks(W, T)
        s = sign_symbol(LBASIS.signed_indices())
        recon = np.where(s > 0, dec.k1, np.where(s < 0, dec.k2, dec.lam))
        assert np.array_equal(np.diagonal(W), before - recon)


class TestEngineMemory:
    # the engine keeps no array between calls; a spectral matrix at N_OP
    # takes N_OP^2 complex values
    SIZE = N_OP**2 * np.dtype(complex).itemsize

    @staticmethod
    def operators(basis=LBASIS):
        return [synthesize_commuting_operator(lam, eta, basis)
                for lam, eta in ((0.3, 0.7j), (-1.0 + 0.5j, 2.0), (0.0, 1.0))]

    @staticmethod
    def decompose(T):
        line = isinstance(T.basis, LineBasis)
        return (decompose_line_operator if line else decompose_circle_operator)(T)

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

    @pytest.mark.parametrize("basis", [LBASIS, FourierBasis((N_OP - 1) // 2)], ids=repr)
    def test_no_memory_is_kept_after_a_decomposition(self, basis):
        # on the line, one ulp off a multiplier takes the dense path, with
        # its spectral matrix; the circle always does
        T = OperatorMatrix(basis, nudged(self.operators(basis)[0].entries))
        peak, end = self.traced(lambda: self.decompose(T))
        assert peak > 0.9 * self.SIZE and end < 0.1 * self.SIZE

    def test_a_multiplier_is_decomposed_without_an_n_by_n_complex_array(self):
        # a copy of the entries pays its equality pass (n^2 bools, a
        # sixteenth of the spectral matrix) when it is built; then the copy,
        # like the synthesized operator, is decomposed from its n-value symbol
        T = self.operators(LBASIS)[0]
        copy = []
        peak, _ = self.traced(lambda: copy.append(OperatorMatrix(T.basis, T.entries)))
        assert peak < 1.25 * self.SIZE
        for op in (copy[0], T):
            peak, end = self.traced(lambda: self.decompose(op))
            assert peak < 0.01 * self.SIZE and end < 0.1 * self.SIZE

    @pytest.mark.parametrize("layout", [np.asarray, np.asfortranarray], ids=["C", "F"])
    def test_a_non_multiplier_is_turned_away_in_linear_time(self, layout):
        # diag(x) matches the circulant of its first column on the first
        # row, but not on the main diagonal: no n^2 comparison is made, and
        # building it allocates no more than its C-order copy
        for E in (np.diag(LBASIS.grid().positions()), random_operator(LBASIS).entries):
            E = layout(E.astype(complex))
            built = []
            peak, _ = self.traced(lambda: built.append(OperatorMatrix(LBASIS, E)))
            assert built[0]._symbol is None
            assert peak < 1.05 * self.SIZE

    def test_no_memory_is_kept_after_a_check_raises(self, monkeypatch):
        from hilbertsym import verify

        T = self.operators()[0]

        def failing(cfg):
            decompose_line_operator(T)
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

    @pytest.mark.parametrize("basis", [LBASIS, FBASIS], ids=repr)
    def test_spectral_matrices_are_fresh_arrays(self, basis):
        # the decomposition edits its spectral matrix in place
        T = self.operators(basis)[0]
        first = _spectral_matrix(T)
        assert not np.shares_memory(first, _spectral_matrix(T))
        assert not np.shares_memory(first, T.entries)

    @pytest.mark.parametrize("basis", [LBASIS, FBASIS], ids=repr)
    def test_concurrent_decompositions_match_the_serial_ones(self, basis):
        ops = self.operators(basis)
        serial = [self.decompose(T) for T in ops]
        fresh = [_spectral_matrix(T) for T in ops[:2]]
        barrier = threading.Barrier(2, timeout=60)
        held, decs = [None, None], [None, None]

        def work(i):
            held[i] = _spectral_matrix(ops[i])
            barrier.wait()  # both threads hold a spectral matrix at once
            decs[i] = [self.decompose(T) for T in ops]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not np.shares_memory(held[0], held[1])
        for h, f in zip(held, fresh):
            assert np.array_equal(h.view(float), f.view(float))
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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_diagonal_operator_is_read_from_its_diagonal(self, seed):
        # the defects are exactly 0 with no n x n temporary, and the spread and
        # components are the dense path's, read on a copy one ulp off diagonal
        K = 128
        rng = np.random.default_rng(seed)
        diag = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
        T = OperatorMatrix(FourierBasis(K), np.diag(diag))
        assert T._symbol is not None
        E = np.diag(diag)
        E[0, 1] = 5e-324
        dense = OperatorMatrix(FourierBasis(K), E)
        assert dense._symbol is None
        ref = rotation_commutant_analysis(dense, _scalarity_scales())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = rotation_commutant_analysis(T, _scalarity_scales())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.diagonal_defect == report.rotation_defect == 0.0
        assert report.orbit_spread == ref.orbit_spread > 0.0
        assert report.orbit_components == ref.orbit_components == 64
        assert peak < 0.1 * T.dim**2 * np.dtype(complex).itemsize

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


# --- multipliers keep their symbol: decomposition, the +-H classifier and
# apply_operator read it, and agree with a dense copy one ulp off, which
# takes the matrix paths

SYMBOL_BASES = [LineBasis(n, -40.0, 80.0 / n) for n in (3, 255, 256, 1024)] + [
    FourierBasis(K) for K in (0, 4, 128)
]
SYMBOL_SCALARS = [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (0.5, 0.5j), (0.3 - 0.2j, 0.6 + 0.5j)]


def synthesized_and_copy(basis, lam, eta):
    """The synthesized operator and a copy of its entries that is not a
    multiplier, but on a basis of dimension 1, where every operator is."""
    T = synthesize_commuting_operator(lam, eta, basis)
    return T, OperatorMatrix(basis, nudged(T.entries) if basis.dim > 1 else T.entries)


def unit_probes(basis, seed=7, count=3):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, basis.dim)) + 1j * rng.normal(size=(count, basis.dim))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    if isinstance(basis, LineBasis):
        return [LineSignal(basis.grid(), row) for row in v]
    return [CircleSignal(row) for row in v]


def _values(sig):
    return sig.values if isinstance(sig, LineSignal) else sig.coeffs


def symbol_actions(basis):
    if isinstance(basis, LineBasis):
        # translations: the probes fill the band, so no dilation keeps them
        return [line_affine_action(AffineElement(1.0, b * basis.dx)) for b in (0.0, 3.5, 7.0)]
    return [circle_semigroup_action(RationalScale(*r), basis.K)
            for r in ((1, 1, 0.9), (1, 1, 2.3), (1, 2, 0.0))]


@pytest.mark.parametrize("lam, eta", SYMBOL_SCALARS)
@pytest.mark.parametrize("basis", SYMBOL_BASES, ids=repr)
def test_the_symbol_path_matches_the_dense_copy(basis, lam, eta):
    T, D = synthesized_and_copy(basis, lam, eta)
    assert T._symbol is not None and (D._symbol is None) == (basis.dim > 1)
    # ||T||_F grows as sqrt(n): it agrees to 1e-15 relative
    assert abs(T.frobenius_norm - D.frobenius_norm) <= 1e-15 * D.frobenius_norm
    decompose = decompose_line_operator if isinstance(basis, LineBasis) else decompose_circle_operator
    if basis.dim > 1:
        assert_decompositions_agree(decompose(T), decompose(D))
    else:  # the degenerate basis is refused on either path, with one message
        with pytest.raises(ValueError, match="degenerate basis") as sym:
            decompose(T)
        with pytest.raises(ValueError) as dense:
            _decompose_blocks(_spectral_matrix(D), D)
        assert str(sym.value) == str(dense.value)
    probes = unit_probes(basis)
    f = stack_signals(probes)
    assert np.abs(_values(apply_operator(T, f)) - _values(apply_operator(D, f))).max() <= 1e-15
    actions = symbol_actions(basis)
    sym, dense = commutator_defect(T, actions, probes), commutator_defect(D, actions, probes)
    assert sym.labels == dense.labels
    assert sym.defects.shape == dense.defects.shape == (len(actions), len(probes))
    assert np.abs(sym.defects - dense.defects).max() <= 1e-15
    assert classify_pm_hilbert(T) == classify_pm_hilbert(D)


@pytest.mark.parametrize("lam, eta", SYMBOL_SCALARS)
@pytest.mark.parametrize("K", [0, 4, 128])
def test_the_circle_symbol_path_is_bitwise_the_dense_one(K, lam, eta):
    # the symbol's row norms are the diagonal matrix's, summed in the same order
    T, D = synthesized_and_copy(FourierBasis(K), lam, eta)
    assert T.frobenius_norm.hex() == D.frobenius_norm.hex()
    if K:  # repr tells every two floats apart, -0.0 and 0.0 included
        assert repr(decompose_circle_operator(T)) == repr(decompose_circle_operator(D))


@pytest.mark.parametrize("basis", [LBASIS, FBASIS], ids=repr)
def test_synthesized_entries_and_symbol_are_read_only(basis):
    T = synthesize_commuting_operator(0.3, 0.7j, basis)
    for arr in (T.entries, T._symbol):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


@pytest.mark.parametrize("basis", [LBASIS, FBASIS], ids=repr)
@pytest.mark.parametrize("lam", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_scalars_are_rejected_as_entries_are(basis, lam):
    with np.errstate(invalid="ignore"), pytest.raises(
        ValueError, match="^operator entries must be finite$"
    ):
        synthesize_commuting_operator(lam, 1.0, basis)


def test_a_synthesized_line_operator_allocates_no_n_by_n_array():
    # synthesis, decomposition, the +-H classifier, the product with a
    # batch and the commutator all read the n-value symbol
    basis = LineBasis(1024, -40.0, 80.0 / 1024)
    probes = unit_probes(basis, count=2)
    f = stack_signals(probes)
    actions = symbol_actions(basis)
    out = []

    def engine():
        T = synthesize_commuting_operator(0.3 - 0.2j, 0.6 + 0.5j, basis)
        H = synthesize_commuting_operator(0.0, 1.0, basis)
        out.extend([decompose_line_operator(T), classify_pm_hilbert(H),
                    apply_operator(T, f), commutator_defect(H, actions, probes)])

    peak, _ = TestEngineMemory.traced(engine)
    assert out[1].verdict == "plus-H"
    assert peak < 0.25 * basis.dim**2 * np.dtype(complex).itemsize

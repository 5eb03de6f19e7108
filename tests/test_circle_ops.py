import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertsym import (
    CircleSamples,
    CircleSignal,
    MoebiusElement,
    RationalScale,
    SignalFamily,
    annihilator_witness,
    cauchy_pv,
    cauchy_symbol,
    circular_convolve,
    circular_hilbert,
    circular_hilbert_quadrature,
    mean_functional,
    moebius_act,
    norm,
    plemelj_project,
    semigroup_act,
    semigroup_act_samples,
    zero_set,
)
from hilbertsym.signals import (
    circle_coeffs_from_samples,
    circle_samples_from_coeffs,
    evaluate_fourier_series,
)


def monomial(k, K=8):
    return CircleSignal.from_dict({k: 1.0}, K=K)


def slow_cauchy_pv_on_monomial(m: int, theta: float, n: int = 20000) -> complex:
    """Direct principal-value evaluation of the boundary Cauchy integral on
    t^m: (1/2pi) pv integral e^{ims} e^{is} / (e^{is} - e^{i theta}) ds,
    with the node at s = theta excluded and symmetric neighbours.  First-order
    accurate; used only to pin the +-1/2 symbol convention.
    """
    # place theta on the s-grid so the exclusion is symmetric
    j0 = int(round(theta * n / (2 * np.pi)))
    theta = 2 * np.pi * j0 / n
    s = 2 * np.pi * np.arange(n) / n
    mask = np.arange(n) != j0
    integrand = np.exp(1j * m * s[mask]) * np.exp(1j * s[mask]) / (
        np.exp(1j * s[mask]) - np.exp(1j * theta)
    )
    return (1.0 / (2 * np.pi)) * np.sum(integrand) * (2 * np.pi / n)


class TestCircularHilbert:
    def test_monomial(self):
        out = circular_hilbert(monomial(3))
        assert out.coeff(3) == -1j
        assert np.count_nonzero(out.coeffs) == 1

    def test_constant_annihilated(self):
        out = circular_hilbert(monomial(0))
        assert np.all(out.coeffs == 0)

    def test_involution_identity_exact(self, trig_probes):
        for c in trig_probes:
            hh = circular_hilbert(circular_hilbert(c))
            mean_part = plemelj_project(c, "zero")
            assert np.linalg.norm(hh.coeffs + c.coeffs - mean_part.coeffs) <= 1e-15 * norm(c)


class TestCircularQuadrature:
    def test_cosine_to_sine(self):
        n = 256
        theta = 2 * np.pi * np.arange(n) / n
        out = circular_hilbert_quadrature(CircleSamples(np.cos(3 * theta)))
        assert np.max(np.abs(out.values - np.sin(3 * theta))) <= 1e-3

    def test_zero(self):
        out = circular_hilbert_quadrature(CircleSamples(np.zeros(64)))
        assert np.all(out.values == 0)

    def test_constant_cancels(self):
        out = circular_hilbert_quadrature(CircleSamples(np.ones(256)))
        assert np.max(np.abs(out.values)) <= 1e-10

    def test_odd_sample_count_rejected(self):
        with pytest.raises(ValueError):
            circular_hilbert_quadrature(CircleSamples(np.ones(255)))

    def test_agrees_with_multiplier(self):
        n = 256
        probes = [
            CircleSignal((np.random.default_rng(s).normal(size=2 * (n // 8) + 1)
                          + 1j * np.random.default_rng(s + 1).normal(size=2 * (n // 8) + 1)))
            for s in (0, 1, 2)
        ]
        for c in probes:
            samples = circle_samples_from_coeffs(c, n)
            quad = circular_hilbert_quadrature(samples)
            mult = circle_samples_from_coeffs(circular_hilbert(c), n)
            err = np.linalg.norm(quad.values - mult.values) / np.linalg.norm(samples.values)
            assert err <= 1e-3


class TestCauchyOperators:
    def test_pv_symbol_against_direct_integral(self):
        # the slow oracle distinguishes the +-1/2 convention from +-1
        for m, expected in ((3, 0.5), (-2, -0.5), (0, 0.5)):
            for theta in (0.4, 2.0):
                val = slow_cauchy_pv_on_monomial(m, theta)
                target = expected * np.exp(1j * m * theta)
                assert abs(val - target) <= 5e-3

    def test_pv_monomials(self):
        assert cauchy_pv(monomial(3)).coeff(3) == 0.5
        assert cauchy_pv(monomial(-2)).coeff(-2) == -0.5
        assert cauchy_pv(monomial(0)).coeff(0) == 0.5

    def test_symbol_monomials(self):
        assert cauchy_symbol(monomial(3)).coeff(3) == 1.0
        assert cauchy_symbol(monomial(-2)).coeff(-2) == -1.0

    def test_operator_relations_exact(self, trig_probes):
        for c in trig_probes:
            s = cauchy_symbol(c)
            pv = cauchy_pv(c)
            h = circular_hilbert(c)
            mean_part = plemelj_project(c, "zero")
            assert np.array_equal(s.coeffs, 2.0 * pv.coeffs)
            assert np.linalg.norm(s.coeffs - (1j * h.coeffs + mean_part.coeffs)) == 0
            assert np.linalg.norm(
                pv.coeffs - (0.5j * h.coeffs + 0.5 * mean_part.coeffs)
            ) <= 1e-16 * norm(c)

    def test_projection_from_symbol_keeps_nonnegative_modes(self, trig_probes):
        for c in trig_probes:
            p_plus = 0.5 * (c.coeffs + cauchy_symbol(c).coeffs)
            expected = plemelj_project(c, "plus").coeffs
            assert np.array_equal(p_plus, expected)


class TestPlemeljProjections:
    def setup_method(self):
        self.c = CircleSignal.from_dict({0: 2.0, 1: 1.0, -1: 1.0}, K=2)

    def test_zero_part(self):
        assert mean_functional(self.c) == 2.0
        out = plemelj_project(self.c, "zero")
        assert out.coeff(0) == 2.0
        assert np.count_nonzero(out.coeffs) == 1

    def test_plus_tilde_part(self):
        out = plemelj_project(self.c, "plus-tilde")
        assert out.coeff(1) == 1.0
        assert np.count_nonzero(out.coeffs) == 1

    def test_three_parts_sum_to_identity(self, trig_probes):
        for c in trig_probes:
            total = (
                plemelj_project(c, "zero").coeffs
                + plemelj_project(c, "plus-tilde").coeffs
                + plemelj_project(c, "minus").coeffs
            )
            assert np.array_equal(total, c.coeffs)

    def test_mean_examples(self):
        assert mean_functional(monomial(0)) == 1.0
        assert mean_functional(monomial(2)) == 0.0
        c = CircleSignal.from_dict({0: 3.0, -1: 2.0}, K=1)
        assert mean_functional(c) == 3.0


class TestSemigroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            RationalScale(2, 4, 0.0)
        with pytest.raises(ValueError):
            RationalScale(0, 1, 0.0)

    @pytest.mark.parametrize("q, p", [(True, 1), (2, True), (2.0, 1), (1, 3.0)])
    def test_a_non_integer_q_or_p_is_named(self, q, p):
        with pytest.raises(ValueError, match=rf"^q and p must be integers, "
                                             rf"got q={q!r}, p={p!r}$"):
            RationalScale(q, p, 0.0)

    def test_halving_on_t2(self):
        out = semigroup_act(monomial(2), RationalScale(1, 2, 0.0))
        assert out.coeff(1) == pytest.approx(np.sqrt(2.0))
        assert np.count_nonzero(out.coeffs) == 1

    def test_annihilation_when_index_not_divisible(self):
        out = semigroup_act(monomial(1), RationalScale(1, 2, 0.0))
        assert np.all(out.coeffs == 0)

    @pytest.mark.parametrize("m", [-2, 1, 3])
    def test_integer_scale_on_monomial(self, m):
        beta = 0.7
        out = semigroup_act(monomial(m), RationalScale(3, 1, beta), k_out=3 * abs(m) + 2)
        expected = 3**-0.5 * np.exp(1j * m * beta)
        assert out.coeff(3 * m) == pytest.approx(expected)

    def test_matches_sample_average(self, trig_probes):
        for c in trig_probes[:3]:
            for q, p, beta in ((2, 3, 0.5), (1, 4, 1.1), (5, 2, 0.0)):
                r = RationalScale(q, p, beta)
                closed = semigroup_act(c, r)
                n_s = 2 * closed.K + 2
                recovered = circle_coeffs_from_samples(
                    semigroup_act_samples(c, r, n_s), closed.K
                )
                assert np.max(np.abs(closed.coeffs - recovered.coeffs)) <= 1e-12

    @staticmethod
    def series_average(c, r, n_samples):
        """The averaging formula summed at each of its p*n angles."""
        theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
        base = r.q * theta / r.p + r.beta
        shifts = 2.0 * np.pi * np.arange(r.p) / r.p
        vals = evaluate_fourier_series(c, (shifts[:, None] + base[None, :]).ravel())
        total = vals.reshape(vals.shape[:-1] + (r.p, n_samples)).sum(axis=-2)
        return np.sqrt(r.p / r.q) / r.p * total

    COPRIME = [(q, p) for q in range(1, 6) for p in range(1, 6) if np.gcd(q, p) == 1]

    @staticmethod
    def random_batch(K, seed):
        rng = np.random.default_rng(seed)
        return CircleSignal(rng.standard_normal((3, 2 * K + 1))
                            + 1j * rng.standard_normal((3, 2 * K + 1)))

    @pytest.mark.parametrize("K", [3, 25, 40, 128])
    def test_fft_oracle_matches_the_series_at_each_angle(self, K):
        # from K = 25, n_samples = 1, 7 and 8 put p*n below 2K+1: the
        # coefficients fold onto k mod p*n
        c = self.random_batch(K, K)
        scale = np.abs(c.coeffs).sum(axis=-1, keepdims=True)
        for n_s in (1, 7, 8, 64, 300):
            for (q, p), beta in itertools.product(self.COPRIME, (0.0, 1.0, np.pi / 3)):
                r = RationalScale(q, p, beta)
                got = semigroup_act_samples(c, r, n_s).values
                assert got.shape == (3, n_s)
                assert np.all(np.abs(got - self.series_average(c, r, n_s)) <= 1e-13 * scale)

    @pytest.mark.parametrize("K", [3, 25, 40, 128])
    def test_fft_oracle_matches_the_closed_form_at_a_large_rotation(self, K):
        c = self.random_batch(K, K + 1)
        for q, p in self.COPRIME:
            r = RationalScale(q, p, 1e3)
            closed = semigroup_act(c, r)
            recovered = circle_coeffs_from_samples(
                semigroup_act_samples(c, r, 2 * closed.K + 2), closed.K)
            assert np.max(np.abs(closed.coeffs - recovered.coeffs)) <= 1e-12

    @pytest.mark.parametrize("n_samples", [0, -3, 2.0, "8", True])
    def test_a_bad_sample_count_is_named(self, n_samples):
        with pytest.raises(ValueError, match=rf"^n_samples must be an integer >= 1, "
                                             rf"got {re.escape(repr(n_samples))}$"):
            semigroup_act_samples(monomial(2), RationalScale(2, 3, 0.5), n_samples)

    def test_composition_law(self, trig_probes):
        c = trig_probes[0]
        r = RationalScale(3, 2, 0.9)
        direct = semigroup_act(c, r)
        step = semigroup_act(semigroup_act(c, RationalScale(1, 2, 0.9)), RationalScale(3, 1, 0.0))
        K = max(direct.K, step.K)
        assert np.max(np.abs(direct.padded(K).coeffs - step.padded(K).coeffs)) <= 1e-15

    def test_mean_invariance_constant(self, trig_probes):
        for c in trig_probes:
            r = RationalScale(2, 3, 1.3)
            acted = semigroup_act(c, r)
            assert mean_functional(acted) == pytest.approx(
                np.sqrt(r.p / r.q) * mean_functional(c), abs=1e-15
            )

    def test_subspace_invariance(self, trig_probes):
        for c in trig_probes:
            r = RationalScale(2, 3, 0.4)
            plus = plemelj_project(c, "plus-tilde")
            acted = semigroup_act(plus, r)
            ks = acted.indices()
            assert np.all(acted.coeffs[ks <= 0] == 0)
            minus = plemelj_project(c, "minus")
            acted = semigroup_act(minus, r)
            ks = acted.indices()
            assert np.all(acted.coeffs[ks >= 0] == 0)

    def test_truncation_overflow_error(self):
        with pytest.raises(ValueError, match=r"^output truncation K'=4 loses nonzero "
                                             r"coefficients; required K'=6$"):
            semigroup_act(monomial(2, K=4), RationalScale(3, 1, 0.0), k_out=4)

    @pytest.mark.parametrize("k_out", [True, 8.0, 4.5])
    def test_a_non_integer_truncation_is_named(self, k_out):
        with pytest.raises(ValueError, match=rf"^output truncation K' must be an integer, "
                                             rf"got {re.escape(repr(k_out))}$"):
            semigroup_act(monomial(2, K=4), RationalScale(3, 1, 0.0), k_out=k_out)

    def test_the_default_truncation_is_not_scanned(self, monkeypatch, trig_probes):
        # q*floor(K/p) holds every populated output index by construction
        from hilbertsym import circle_ops

        def scan(*args):
            raise AssertionError("the lossless default was scanned")

        c, r = trig_probes[0], RationalScale(2, 3, 0.4)
        want = semigroup_act(c, r).coeffs
        monkeypatch.setattr(circle_ops, "_required_k_out", scan)
        assert np.array_equal(semigroup_act(c, r).coeffs, want)

    def test_commutes_with_circular_hilbert_exactly(self):
        from hilbertsym import make_probes

        K = 32
        for q, p in ((1, 2), (3, 1), (2, 5)):
            r = RationalScale(q, p, 0.8)
            probes = make_probes(
                "trig-poly", seed=40 + q + 10 * p, count=3, K=K, degree=max(1, K // (p * q))
            )
            for c in probes:
                lhs = semigroup_act(circular_hilbert(c), r, k_out=K)
                rhs = circular_hilbert(semigroup_act(c, r, k_out=K))
                assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-14


class TestMoebius:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MoebiusElement(0.0, 1.0)
        with pytest.raises(ValueError):
            MoebiusElement(0.0, -0.1)

    def test_identity(self):
        c = CircleSignal.from_dict({1: 1.0, 2: 0.5}, K=4)
        s = circle_samples_from_coeffs(c, 64)
        out = moebius_act(s, MoebiusElement(0.0, 0.0))
        np.testing.assert_allclose(out.values, s.values, atol=1e-12)

    def test_pure_rotation(self):
        c = CircleSignal.from_dict({2: 1.0}, K=4)
        n = 64
        s = circle_samples_from_coeffs(c, n)
        theta = 0.9
        out = moebius_act(s, MoebiusElement(theta, 0.0))
        expected = np.exp(2j * (s.angles() - theta))
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_jacobian_weight_is_unitary(self):
        # enough samples that the composed (non-polynomial) signal is
        # resolved: its coefficients decay like a^|k| past the probe degree
        from hilbertsym import make_probes

        n = 512
        for c in make_probes("trig-poly", seed=44, count=3, K=25):
            s = circle_samples_from_coeffs(c, n)
            for a in (0.0, 0.3, 0.7):
                out = moebius_act(s, MoebiusElement(0.6, a), weight="jacobian")
                assert abs(norm(out) / norm(s) - 1.0) <= 1e-8

    def test_plain_weight_norm_defect_reported_not_unitarity(self):
        c = CircleSignal.from_dict({1: 1.0, -2: 0.7}, K=4)
        s = circle_samples_from_coeffs(c, 128)
        out = moebius_act(s, MoebiusElement(0.0, 0.5), weight="plain")
        # measurably non-unitary; the operation must not hide that
        assert abs(norm(out) / norm(s) - 1.0) > 1e-3

    def test_unknown_weight(self):
        s = CircleSamples(np.ones(8))
        with pytest.raises(ValueError):
            moebius_act(s, MoebiusElement(0.0, 0.1), weight="modulus")


class TestConvolution:
    def test_monomial_idempotent(self):
        t2 = monomial(2)
        out = circular_convolve(t2, t2)
        assert np.array_equal(out.coeffs, t2.coeffs)

    def test_convolve_with_constant_extracts_mean(self):
        c = CircleSignal.from_dict({0: 3.0, 1: 2.0, -4: 1.0}, K=8)
        one = monomial(0)
        out = circular_convolve(c, one)
        assert out.coeff(0) == 3.0
        assert np.count_nonzero(out.coeffs) == 1

    def test_zero_annihilates(self, trig_probes):
        z = CircleSignal(np.zeros(2 * trig_probes[0].K + 1))
        assert np.all(circular_convolve(z, trig_probes[0]).coeffs == 0)

    def test_mismatched_truncation(self):
        with pytest.raises(ValueError):
            circular_convolve(monomial(1, K=4), monomial(1, K=5))

    def test_matches_quadrature_of_defining_integral(self):
        # trapezoid of (1/2pi) int f(e^{i(t-s)}) g(e^{is}) ds, exact on trig polys
        f = CircleSignal.from_dict({1: 1.5, -2: 0.5j}, K=4)
        g = CircleSignal.from_dict({1: -1j, 2: 2.0}, K=4)
        n = 64
        theta = 2 * np.pi * np.arange(n) / n
        vals = np.empty(n, dtype=complex)
        for j, t in enumerate(theta):
            vals[j] = np.mean(
                evaluate_fourier_series(f, t - theta) * evaluate_fourier_series(g, theta)
            )
        direct = circle_coeffs_from_samples(CircleSamples(vals), 4)
        assert np.max(np.abs(direct.coeffs - circular_convolve(f, g).coeffs)) <= 1e-12


class TestZeroSetAndAnnihilator:
    def test_zero_set_examples(self):
        fam = SignalFamily((monomial(1, K=2), monomial(2, K=2)))
        assert zero_set(fam) == {-2, -1, 0}
        full = CircleSignal(np.ones(5))
        assert zero_set(SignalFamily((full,))) == set()
        fam2 = SignalFamily(
            (CircleSignal.from_dict({1: 1.0, -1: 1.0}, K=1), monomial(0, K=1))
        )
        assert zero_set(fam2) == set()

    def test_annihilator_zero_verdict(self):
        full = CircleSignal(np.ones(9))
        fam = SignalFamily((full,))
        assert annihilator_witness(fam, CircleSignal(np.zeros(9))) is None

    def test_annihilator_witness_index(self):
        full = CircleSignal(np.ones(9))
        fam = SignalFamily((full,))
        assert annihilator_witness(fam, monomial(2, K=4)) == 2

    def test_precondition_error_on_nonempty_zero_set(self):
        fam = SignalFamily((monomial(1, K=2),))
        with pytest.raises(ValueError, match="zero set"):
            annihilator_witness(fam, monomial(1, K=2))

    def test_one_zero_threshold_and_no_keyword(self):
        import inspect

        for fn in (zero_set, annihilator_witness):
            assert list(inspect.signature(fn).parameters) in (["fam"], ["fam", "phi"])
        # 1e-12 relative: a coefficient just below counts as zero, just above does not
        for c1, zeros in ((0.9e-12, {-1, 1}), (1.1e-12, {-1})):
            member = CircleSignal.from_dict({0: 1.0, 1: c1}, K=1)
            assert zero_set(SignalFamily((member,))) == zeros


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
def test_convolution_of_monomials_property(j, k):
    a = monomial(j)
    b = monomial(k)
    out = circular_convolve(a, b)
    if j == k:
        assert out.coeff(j) == 1.0
        assert np.count_nonzero(out.coeffs) == 1
    else:
        assert np.all(out.coeffs == 0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
             min_size=5, max_size=9).filter(lambda v: len(v) % 2 == 1)
)
def test_plemelj_partition_property(coeffs):
    c = CircleSignal(np.asarray(coeffs))
    parts = [plemelj_project(c, p).coeffs for p in ("zero", "plus-tilde", "minus")]
    assert np.array_equal(parts[0] + parts[1] + parts[2], c.coeffs)
    plus = plemelj_project(c, "plus").coeffs
    assert np.array_equal(plus, parts[0] + parts[1])


class TestMoebiusEvenSampleCount:
    """An even sample count carries a Nyquist mode (-1)^j; the action must
    keep it rather than truncate it away."""

    def test_identity_keeps_nyquist_mode(self):
        n = 16
        s = CircleSamples((-1.0) ** np.arange(n))
        for weight in ("plain", "jacobian"):
            out = moebius_act(s, MoebiusElement(0.0, 0.0), weight)
            np.testing.assert_allclose(out.values, s.values, atol=1e-13)

    def test_off_grid_rotation_splits_nyquist_mode(self):
        # half to each of k = +-n/2: the real mode (-1)^j rotates into the
        # real cosine, not into a one-sided complex exponential
        n, theta = 16, 0.3
        s = CircleSamples((-1.0) ** np.arange(n))
        out = moebius_act(s, MoebiusElement(theta, 0.0))
        np.testing.assert_allclose(out.values, np.cos(n / 2 * (s.angles() - theta)), atol=1e-13)

    @pytest.mark.parametrize("n", [16, 17, 64])
    def test_identity_on_arbitrary_samples(self, n):
        rng = np.random.default_rng(n)
        s = CircleSamples(rng.normal(size=n) + 1j * rng.normal(size=n))
        out = moebius_act(s, MoebiusElement(0.0, 0.0))
        np.testing.assert_allclose(out.values, s.values, atol=1e-13)

    @pytest.mark.parametrize("n", [16, 64])
    def test_grid_rotation_round_trip(self, n):
        # a rotation by m grid steps is an exact cyclic shift, Nyquist mode
        # included, so rotating forth and back restores the samples
        rng = np.random.default_rng(n + 1)
        s = CircleSamples(rng.normal(size=n) + 1j * rng.normal(size=n))
        step = 2.0 * np.pi / n
        there = moebius_act(s, MoebiusElement(3 * step, 0.0))
        np.testing.assert_allclose(there.values, np.roll(s.values, 3), atol=1e-12)
        back = moebius_act(there, MoebiusElement(-3 * step, 0.0))
        np.testing.assert_allclose(back.values, s.values, atol=1e-12)

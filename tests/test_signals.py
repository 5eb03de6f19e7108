import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertsym import (
    CircleSamples,
    CircleSignal,
    Grid1D,
    LineBasis,
    LineSignal,
    dft,
    idft,
    inner_product,
    norm,
)
from hilbertsym.signals import (
    _phase_table,
    circle_coeffs_from_samples,
    circle_samples_from_coeffs,
    evaluate_fourier_series,
    sign_symbol,
    signed_indices,
)


def brute_force_dft(f: LineSignal) -> np.ndarray:
    """Independent O(n^2) evaluation of the calibrated transform."""
    g = f.grid
    x = g.positions()
    xi = g.frequencies()
    return (g.dx / np.sqrt(2 * np.pi)) * np.exp(-1j * np.outer(xi, x)) @ f.values


class TestGridAndTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(x_min=0.0, n=1, dx=0.1)
        with pytest.raises(ValueError):
            Grid1D(x_min=0.0, n=16, dx=0.0)
        with pytest.raises(ValueError):
            Grid1D(x_min=np.nan, n=16, dx=0.1)

    @pytest.mark.parametrize("n", [2.5, 8.0, "8", True])
    def test_grid_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=rf"grid size n must be an integer, got {n!r}$"):
            Grid1D(0.0, n, 1.0)

    def test_numpy_integer_grid_size_is_accepted(self):
        g = Grid1D(0.0, np.int64(8), 1.0)
        assert g.signed_indices().tolist() == [0, 1, 2, 3, 4, -3, -2, -1]
        assert g.signed_indices().dtype.kind == "i"
        assert LineBasis(np.int64(8), 0.0, 1.0).grid() == Grid1D(0.0, 8, 1.0)
        with pytest.raises(ValueError, match="grid needs at least two samples, got n=1$"):
            Grid1D(0.0, np.int64(1), 1.0)

    def test_signed_index_map(self):
        assert list(signed_indices(8)) == [0, 1, 2, 3, 4, -3, -2, -1]
        assert list(signed_indices(5)) == [0, 1, 2, -2, -1]

    def test_sign_symbol(self):
        assert list(sign_symbol(signed_indices(8))) == [0, 1, 1, 1, 0, -1, -1, -1]
        assert list(sign_symbol(signed_indices(5))) == [0, 1, 1, -1, -1]
        assert list(sign_symbol(np.arange(-2, 3))) == [-1, -1, 0, 1, 1]

    def test_length_mismatch(self):
        g = Grid1D(0.0, 8, 0.5)
        with pytest.raises(ValueError):
            LineSignal(g, np.zeros(7))

    def test_nonfinite_rejected(self):
        g = Grid1D(0.0, 8, 0.5)
        vals = np.zeros(8, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            LineSignal(g, vals)
        with pytest.raises(ValueError):
            CircleSignal([1.0, np.inf, 0.0])
        with pytest.raises(ValueError):
            CircleSamples([1.0, complex(0.0, -np.inf)])

    def test_values_immutable(self):
        g = Grid1D(0.0, 8, 0.5)
        f = LineSignal(g, np.ones(8))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_circle_signal_indexing(self):
        c = CircleSignal.from_dict({-2: 1j, 3: 2.0}, K=4)
        assert c.K == 4
        assert c.coeff(-2) == 1j
        assert c.coeff(3) == 2.0
        assert c.coeff(0) == 0.0
        with pytest.raises(ValueError):
            c.coeff(5)

    def test_circle_signal_odd_length(self):
        with pytest.raises(ValueError):
            CircleSignal(np.zeros(4))


class TestTransform:
    def test_zero_maps_to_zero(self):
        g = Grid1D.from_interval(-10, 10, 64)
        s = dft(LineSignal(g, np.zeros(64)))
        assert np.all(s.values == 0)

    def test_aligned_exponential_concentrates_in_one_bin(self):
        g = Grid1D.from_interval(-40, 40, 64)
        xi1 = g.dxi
        f = LineSignal(g, np.exp(1j * xi1 * g.positions()))
        s = dft(f)
        mags = np.abs(s.values)
        assert mags[1] > 0
        mags_other = np.delete(mags, 1)
        assert np.max(mags_other) <= 1e-12 * mags[1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        g = Grid1D(x_min=-3.0, n=24, dx=0.37)
        f = LineSignal(g, rng.normal(size=24) + 1j * rng.normal(size=24))
        np.testing.assert_allclose(dft(f).values, brute_force_dft(f), atol=1e-12)

    @pytest.mark.parametrize("n", [64, 360, 257])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        g = Grid1D.from_interval(-40, 40, n)
        f = LineSignal(g, rng.normal(size=n) + 1j * rng.normal(size=n))
        back = idft(dft(f))
        assert np.linalg.norm(back.values - f.values) <= 1e-12 * np.linalg.norm(f.values)

    def test_parseval_gaussian(self, big_grid):
        x = big_grid.positions()
        f = LineSignal(big_grid, np.exp(-(x**2) / 2))
        assert abs(norm(dft(f)) - norm(f)) <= 1e-12 * norm(f)

    def test_parseval_on_probes(self, packets, bandlimited):
        for f in packets + bandlimited:
            assert abs(norm(dft(f)) - norm(f)) <= 1e-12 * norm(f)


class TestInnerProduct:
    def test_self_product_nonnegative(self, packets):
        f = packets[0]
        ip = inner_product(f, f)
        assert ip.imag == pytest.approx(0.0, abs=1e-15)
        assert ip.real >= 0

    def test_circle_monomial_orthonormality(self):
        t1 = CircleSignal.from_dict({1: 1.0}, K=4)
        t2 = CircleSignal.from_dict({2: 1.0}, K=4)
        assert inner_product(t1, t2) == 0
        assert inner_product(t2, t2) == 1

    def test_conjugate_linear_in_second_argument(self):
        t1 = CircleSignal.from_dict({1: 1.0}, K=2)
        t2 = CircleSignal.from_dict({1: 2j}, K=2)
        assert inner_product(t1, t2) == pytest.approx(-2j)

    def test_mismatched_domains(self, packets, trig_probes):
        g2 = Grid1D.from_interval(-40, 40, 512)
        other = LineSignal(g2, np.zeros(512))
        with pytest.raises(ValueError):
            inner_product(packets[0], other)
        with pytest.raises(ValueError):
            inner_product(packets[0], trig_probes[0])
        small = CircleSignal(np.zeros(3))
        with pytest.raises(ValueError):
            inner_product(trig_probes[0], small)

    def test_circle_samples_normalisation(self):
        s = CircleSamples(np.ones(16))
        assert inner_product(s, s) == pytest.approx(1.0)


class TestCircleConversions:
    @pytest.mark.parametrize("n", [65, 128, 133])
    def test_round_trip_lossless(self, n, trig_probes):
        for c in trig_probes:
            samples = circle_samples_from_coeffs(c, n)
            back = circle_coeffs_from_samples(samples, c.K)
            assert np.linalg.norm(back.coeffs - c.coeffs) <= 1e-12 * np.linalg.norm(c.coeffs)
            assert abs(norm(samples) - norm(c)) <= 1e-12 * norm(c)

    def test_too_few_samples_rejected(self):
        c = CircleSignal(np.ones(9))
        with pytest.raises(ValueError):
            circle_samples_from_coeffs(c, 8)

    def test_series_evaluation_matches_samples(self, trig_probes):
        c = trig_probes[0]
        n = 4 * c.K + 2
        samples = circle_samples_from_coeffs(c, n)
        direct = evaluate_fourier_series(c, samples.angles())
        np.testing.assert_allclose(direct, samples.values, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
             min_size=3, max_size=9).filter(lambda v: len(v) % 2 == 1)
)
def test_circle_parseval_property(coeffs):
    c = CircleSignal(np.asarray(coeffs))
    n = 2 * c.K + 1 + 5
    samples = circle_samples_from_coeffs(c, n)
    assert abs(norm(samples) - norm(c)) <= 1e-9 * max(norm(c), 1.0)


@pytest.mark.parametrize("K", [0, 1, 2, 7, 40, 255, 511])
def test_fourier_series_matches_direct_exponential_sum(K):
    rng = np.random.default_rng(K)
    c = CircleSignal(rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1))
    angles = np.concatenate([rng.uniform(-50.0, 50.0, size=97), [0.0, np.pi, -np.pi]])
    direct = np.exp(1j * np.outer(angles, c.indices())) @ c.coeffs
    got = evaluate_fourier_series(c, angles)
    assert got.shape == angles.shape
    assert np.abs(got - direct).max() <= 1e-13 * np.abs(c.coeffs).sum()


@pytest.mark.parametrize(
    "start, step, m", [(0, 1, 1024), (0, 1, 23), (-511, 32, 32), (-511, 1, 1023)]
)
def test_phase_table_entries_hold_the_argument_rounding_bound(start, step, m):
    # exp(1j * theta * k) rounds theta*k once, moving the phase by up to
    # eps/2 |theta k|.  The table rounds the arguments of its two factors,
    # whose indices sum to k and have moduli summing to at most
    # |start| + |step| j; each exponential and the product add an ulp or two.
    rng = np.random.default_rng(m)
    theta = np.concatenate([rng.uniform(-50.0, 50.0, size=200), [-50.0, 50.0, 0.0, np.pi]])
    j = np.arange(m)
    k = start + step * j
    eps = np.finfo(float).eps
    bound = eps * (0.5 * np.abs(theta)[:, None] * (abs(start) + abs(step) * j + np.abs(k)) + 4.0)
    err = np.abs(_phase_table(theta, start, step, m) - np.exp(1j * np.outer(theta, k)))
    assert np.all(err <= bound)


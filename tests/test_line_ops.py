import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertsym import (
    AffineElement,
    AliasingError,
    Grid1D,
    HalfLineSignal,
    LineSignal,
    dft,
    dilate,
    group_compose,
    group_inverse,
    hardy_project,
    hilbert_multiplier,
    hilbert_pv_quadrature,
    idft,
    intertwine_defect,
    make_probes,
    norm,
    rep_fourier_side,
    rep_natural,
    translate,
)
from hilbertsym.line_ops import _chirp_z
from hilbertsym.signals import LineSpectrum, sign_symbol, stack_signals
from hilbertsym.verify import _GUARDED

from conftest import rel_err


def single_bin(grid, k):
    xi = grid.dxi * k
    return LineSignal(grid, np.exp(1j * xi * grid.positions()))


def strip_mean_and_nyquist(f: LineSignal) -> LineSignal:
    s = dft(f)
    vals = np.array(s.values)
    vals[0] = 0.0
    if f.grid.n % 2 == 0:
        vals[f.grid.n // 2] = 0.0
    return idft(s.with_values(vals))


class TestMultiplier:
    def test_positive_frequency_eigenvector(self, grid):
        f = single_bin(grid, 1)
        h = hilbert_multiplier(f)
        assert rel_err(h.values, -1j * f.values) <= 1e-12

    def test_real_input_real_output(self, grid):
        f = make_probes("gaussian-packet", seed=2, count=1, grid=grid, real=True)[0]
        h = hilbert_multiplier(f)
        assert np.max(np.abs(h.values.imag)) <= 1e-12 * np.max(np.abs(h.values.real))

    def test_involution_on_mean_free_probes(self, bandlimited):
        for f in bandlimited:
            hh = hilbert_multiplier(hilbert_multiplier(f))
            assert rel_err(hh.values, -f.values) <= 1e-10

    def test_involution_residue_is_mean_and_nyquist_share(self, packets):
        # H^2 = -I plus the rank-two defect on the mean/Nyquist bins
        for f in packets:
            hh = hilbert_multiplier(hilbert_multiplier(f))
            clean = strip_mean_and_nyquist(f)
            residue = hh.values + f.values - (f.values - clean.values)
            assert np.linalg.norm(residue) <= 1e-10 * norm(f)


class TestHardyMembers:
    def test_decaying_hardy_function_is_eigenvector(self):
        # 1/(x+i)^2 decays fast enough for the window to represent it
        g = Grid1D.from_interval(-80.0, 80.0, 8192)
        x = g.positions()
        f = LineSignal(g, 1.0 / (x + 1j) ** 2)
        ks = g.signed_indices()
        spec = dft(f).values
        neg_mass = np.sum(np.abs(spec[ks < 0]) ** 2) / np.sum(np.abs(spec) ** 2)
        assert neg_mass <= 1e-6
        h = hilbert_multiplier(f)
        clean = strip_mean_and_nyquist(f)
        assert np.linalg.norm(h.values + 1j * clean.values) <= 1e-3 * np.linalg.norm(f.values)

    def test_slowly_decaying_hardy_function(self):
        # 1/(x+i) has 1/x tails: the window truncation dominates, so the
        # membership check is spectral and the eigenrelation bound is loose.
        g = Grid1D.from_interval(-80.0, 80.0, 8192)
        x = g.positions()
        f = LineSignal(g, 1.0 / (x + 1j))
        ks = g.signed_indices()
        spec = dft(f).values
        neg_mass = np.sum(np.abs(spec[ks < 0]) ** 2) / np.sum(np.abs(spec) ** 2)
        assert neg_mass <= 2e-3
        h = hilbert_multiplier(f)
        clean = strip_mean_and_nyquist(f)
        assert np.linalg.norm(h.values + 1j * clean.values) <= 0.1 * np.linalg.norm(f.values)


class TestQuadrature:
    def test_zero_input(self, grid):
        out = hilbert_pv_quadrature(LineSignal(grid, np.zeros(grid.n)))
        assert np.all(out.values == 0)

    def test_lorentzian_closed_form(self):
        g = Grid1D.from_interval(-200.0, 200.0, 16384)
        x = g.positions()
        f = LineSignal(g, 1.0 / (1.0 + x**2))
        out = hilbert_pv_quadrature(f)
        expected = x / (1.0 + x**2)
        central = slice(g.n // 4, 3 * g.n // 4)
        err = np.linalg.norm(out.values[central] - expected[central])
        err /= np.linalg.norm(expected[central])
        assert err <= 1e-3

    def test_matches_multiplier_on_windowed_sine(self, big_grid):
        x = big_grid.positions()
        f = LineSignal(big_grid, np.exp(-(x**2) / 18.0) * np.sin(4.0 * x))
        quad = hilbert_pv_quadrature(f)
        mult = hilbert_multiplier(f)
        central = slice(big_grid.n // 4, 3 * big_grid.n // 4)
        err = np.linalg.norm((quad.values - mult.values)[central]) / norm(f) * np.sqrt(
            big_grid.dx
        )
        assert err <= 1e-3

    def test_observed_order_against_multiplier(self):
        # the verify suite's guarded packets; the error falls about 8x per
        # halving of dx (order 3), the cubic model of validate()'s a01 rule
        errs = []
        for n in (750, 1500, 3000, 6000):
            g = Grid1D.from_interval(-40.0, 40.0, n)
            f = stack_signals(make_probes("gaussian-packet", seed=5, count=4, grid=g, **_GUARDED))
            central = slice(n // 4, 3 * n // 4)
            diff = (hilbert_pv_quadrature(f).values - hilbert_multiplier(f).values)[:, central]
            errs.append(np.max(np.linalg.norm(diff, axis=-1) / np.linalg.norm(f.values, axis=-1)))
        orders = np.log2(np.divide(errs[:-1], errs[1:]))
        assert np.all(orders >= 2.0), orders

    def test_edge_decay_warning_flag(self, grid):
        x = grid.positions()
        wide = LineSignal(grid, np.exp(-(x**2) / (2 * 30.0**2)))
        out = hilbert_pv_quadrature(wide)
        assert "edge-decay" in out.flags
        ok = hilbert_pv_quadrature(LineSignal(grid, np.exp(-(x**2) / 2)))
        assert "edge-decay" not in ok.flags


class TestHardyProjections:
    def test_positive_bin_goes_to_plus(self, grid):
        f = single_bin(grid, 3)
        plus = hardy_project(f, "+")
        minus = hardy_project(f, "-")
        assert rel_err(plus.values, f.values) <= 1e-12
        assert np.linalg.norm(minus.values) <= 1e-12 * norm(f)

    def test_partition_and_hilbert_identity(self, packets):
        for f in packets:
            plus = hardy_project(f, "+")
            minus = hardy_project(f, "-")
            h = hilbert_multiplier(f)
            fn = np.linalg.norm(f.values)
            assert np.linalg.norm(plus.values + minus.values - f.values) <= 1e-12 * fn
            assert np.linalg.norm(plus.values - minus.values - 1j * h.values) <= 1e-12 * fn

    def test_plus_part_is_eigenvector_after_mean_removal(self, bandlimited):
        for f in bandlimited:
            plus = hardy_project(f, "+")
            h = hilbert_multiplier(plus)
            assert np.linalg.norm(h.values + 1j * plus.values) <= 1e-12 * norm(f)

    def test_bad_sign(self, packets):
        with pytest.raises(ValueError):
            hardy_project(packets[0], "up")


class TestDilate:
    def test_identity(self, packets):
        f = packets[0]
        np.testing.assert_array_equal(dilate(f, 1.0).values, f.values)

    def test_gaussian_closed_form(self, big_grid):
        x = big_grid.positions()
        f = LineSignal(big_grid, np.exp(-(x**2) / 2.0))
        out = dilate(f, 2.0)
        expected = (2.0**-0.5) * np.exp(-(x**2) / 8.0)
        assert np.max(np.abs(out.values - expected)) <= 1e-8

    @pytest.mark.parametrize("a", [2.0, 0.5])
    def test_gaussian_closed_form_off_centre_window(self, a):
        # dilation is about x = 0, not about the centre of the window
        grid = Grid1D.from_interval(-30.0, 130.0, 8192)
        x = grid.positions()
        f = LineSignal(grid, np.exp(-((x - 20.0) ** 2) / 2.0))
        expected = a**-0.5 * np.exp(-((x / a - 20.0) ** 2) / 2.0)
        assert np.max(np.abs(dilate(f, a).values - expected)) <= 1e-8

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
    def test_isometry(self, a, grid):
        probes = make_probes(
            "gaussian-packet", seed=8, count=3, grid=grid,
            width=(1.0, 1.3), center=(-1.0, 1.0), modulation=(3.0, 4.0),
        )
        for f in probes:
            assert abs(norm(dilate(f, a)) - norm(f)) <= 1e-8 * norm(f)

    def test_spectral_aliasing_guard(self, grid):
        f = make_probes("random-bandlimited", seed=9, count=1, grid=grid)[0]
        with pytest.raises(AliasingError, match="mass fraction"):
            dilate(f, 0.25)

    def test_spatial_overflow_guard(self, grid):
        x = grid.positions()
        f = LineSignal(grid, np.exp(-(x**2) / (2 * 5.0**2)))
        with pytest.raises(AliasingError, match="mass fraction"):
            dilate(f, 8.0)


class TestTranslate:
    def test_identity(self, packets):
        f = packets[0]
        assert rel_err(translate(f, 0.0).values, f.values) <= 1e-13

    def test_integer_shift_equals_roll(self, grid):
        f = make_probes("gaussian-packet", seed=10, count=1, grid=grid)[0]
        out = translate(f, 3 * grid.dx)
        rolled = np.roll(f.values, 3)
        assert np.max(np.abs(out.values - rolled)) <= 1e-10

    @pytest.mark.parametrize("steps", [1, -7, "n+3"])
    def test_a_whole_step_shift_is_the_roll_bit_for_bit(self, grid, steps):
        steps = grid.n + 3 if steps == "n+3" else steps
        f = stack_signals(make_probes("gaussian-packet", seed=10, count=3, grid=grid))
        out = translate(f, steps * grid.dx)
        assert np.array_equal(out.values.view(float), np.roll(f.values, steps, axis=-1).view(float))

    def test_a_fractional_shift_keeps_the_phase_ramp(self, grid):
        f = make_probes("gaussian-packet", seed=10, count=1, grid=grid)[0]
        b = 3.5 * grid.dx
        ramp = np.fft.ifft(np.exp(-1j * grid.frequencies() * b) * np.fft.fft(f.values))
        assert np.array_equal(translate(f, b).values.view(float), ramp.view(float))

    def test_isometry(self, packets):
        for f in packets:
            assert abs(norm(translate(f, 1.7)) - norm(f)) <= 1e-12 * norm(f)

    def test_edge_mass_flag(self, grid):
        x = grid.positions()
        f = LineSignal(grid, np.exp(-((x - 38.0) ** 2) / 2.0))
        assert "edge-mass" in translate(f, 5.0).flags
        assert "edge-mass" not in translate(f, -5.0).flags
        # a whole-step shift is a roll, and keeps the flag
        assert "edge-mass" in translate(f, 256 * grid.dx).flags


class TestGroup:
    def test_compose_example(self):
        assert group_compose(AffineElement(2, 1), AffineElement(3, 4)) == AffineElement(6, 9)

    def test_identity_element(self):
        g = AffineElement(2.5, -1.0)
        assert group_compose(AffineElement(1, 0), g) == g

    def test_inverse(self):
        g = AffineElement(2.0, 1.0)
        gi = group_inverse(g)
        assert gi == AffineElement(0.5, -0.5)
        assert group_compose(g, gi) == AffineElement(1.0, 0.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            AffineElement(0.0, 1.0)
        with pytest.raises(ValueError):
            AffineElement(-2.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        a1=st.floats(0.1, 10), b1=st.floats(-5, 5),
        a2=st.floats(0.1, 10), b2=st.floats(-5, 5),
        a3=st.floats(0.1, 10), b3=st.floats(-5, 5),
    )
    def test_associativity_and_inverse_property(self, a1, b1, a2, b2, a3, b3):
        g1, g2, g3 = AffineElement(a1, b1), AffineElement(a2, b2), AffineElement(a3, b3)
        left = group_compose(group_compose(g1, g2), g3)
        right = group_compose(g1, group_compose(g2, g3))
        assert left.a == pytest.approx(right.a, rel=1e-12)
        assert left.b == pytest.approx(right.b, rel=1e-12, abs=1e-12)
        gi = group_compose(g1, group_inverse(g1))
        assert gi.a == pytest.approx(1.0, rel=1e-12)
        assert gi.b == pytest.approx(0.0, abs=1e-9 * (1 + abs(b1)))


class TestNaturalRepresentation:
    def test_identity_element(self, packets):
        f = packets[0]
        assert rel_err(rep_natural(f, AffineElement(1, 0)).values, f.values) <= 1e-13

    def test_reduces_to_dilation(self, packets):
        f = packets[0]
        np.testing.assert_allclose(
            rep_natural(f, AffineElement(2, 0)).values, dilate(f, 2).values, atol=1e-12
        )

    def test_homomorphism(self, big_grid):
        x = big_grid.positions()
        f = LineSignal(big_grid, np.exp(-(x**2) / (2 * 0.7**2)))
        lhs = rep_natural(rep_natural(f, AffineElement(3, 4)), AffineElement(2, 1))
        rhs = rep_natural(f, AffineElement(6, 9))
        assert np.linalg.norm(lhs.values - rhs.values) <= 1e-8 * np.linalg.norm(f.values)

    def test_commutes_with_hilbert(self, big_grid):
        probes = make_probes(
            "gaussian-packet", seed=11, count=5, grid=big_grid,
            width=(1.25, 1.4), center=(-1.0, 1.0), modulation=(4.5, 5.2),
        )
        dx = big_grid.dx
        for a in (0.5, 2.0, 4.0):
            for b in (0.0, 7 * dx, -7 * dx, 3.5 * dx):
                g = AffineElement(a, b)
                for f in probes:
                    lhs = hilbert_multiplier(rep_natural(f, g))
                    rhs = rep_natural(hilbert_multiplier(f), g)
                    d = np.linalg.norm(lhs.values - rhs.values) / np.linalg.norm(f.values)
                    assert d <= 1e-6


def decaying_halfline(n=2048, dx=0.02, sign="+"):
    sig = HalfLineSignal(sign, dx, np.zeros(n))
    x = sig.positions()
    vals = np.abs(x) * np.exp(-np.abs(x)) * np.exp(0.3j * x)
    return HalfLineSignal(sign, dx, vals)


class TestFourierSideRepresentation:
    def test_identity(self):
        g = decaying_halfline()
        out = rep_fourier_side(g, 1.0, 0.0)
        np.testing.assert_allclose(out.values, g.values, atol=1e-14)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_support_sign_preserved(self, sign):
        g = decaying_halfline(sign=sign)
        out = rep_fourier_side(g, 2.0, 1.0)
        assert out.sign == sign
        assert out.n == g.n

    def test_homomorphism_integer_scales(self):
        g = decaying_halfline()
        lhs = rep_fourier_side(rep_fourier_side(g, 3.0, 4.0), 2.0, 1.0)
        rhs = rep_fourier_side(g, 6.0, 9.0)
        scale = np.linalg.norm(g.values)
        assert np.linalg.norm(lhs.values - rhs.values) <= 1e-10 * scale

    def test_non_integer_scale_uses_interpolation(self):
        g = decaying_halfline()
        out = rep_fourier_side(g, 1.5, 0.0)
        x = g.positions()
        exact = np.sqrt(1.5) * (1.5 * np.abs(x)) * np.exp(-1.5 * np.abs(x)) * np.exp(
            0.45j * x
        )
        inside = 1.5 * np.abs(x) <= np.abs(x).max()
        err = np.linalg.norm((out.values - exact)[inside]) / np.linalg.norm(exact[inside])
        assert err <= 1e-5

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("a", [0.3, 0.7])
    def test_contraction_keeps_the_stretch_next_to_the_origin(self, sign, a):
        # at a < 1 the first targets fall between the origin and the nearest sample
        g = decaying_halfline(sign=sign)
        out = rep_fourier_side(g, a, 0.0)
        ax = a * np.abs(g.positions())
        exact = np.sqrt(a) * ax * np.exp(-ax) * np.exp(0.3j * a * g.positions())
        assert np.linalg.norm(out.values - exact) / np.linalg.norm(exact) <= 1e-6

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("a", [1, 2, 3, 7])
    def test_integer_scale_is_exact_gather(self, sign, a):
        g = decaying_halfline(n=301, sign=sign)
        j = np.arange(g.n)
        idx = a * (j + 1) - 1 if sign == "+" else g.n + a * (j - g.n)
        ok = (idx >= 0) & (idx < g.n)
        gathered = np.where(ok, g.values[np.where(ok, idx, 0)], 0.0)
        out = rep_fourier_side(g, float(a), 0.0)
        assert np.array_equal(out.values, np.sqrt(a) * gathered)

    @pytest.mark.parametrize("sign, nu", [("+", 5.0), ("-", -5.0)])
    def test_sign_convention_against_natural_action(self, sign, nu):
        # F pi(a, b) f = pi_check(a, -b) F f on the half-line carrying the
        # packet's spectrum; the opposite phase sign must fail
        grid = Grid1D.from_interval(-40.0, 40.0, 4096)
        x = grid.positions()
        f = LineSignal(grid, np.exp(-(x**2) / (2 * 1.3**2)) * np.exp(1j * nu * x))
        half = slice(1, grid.n // 2) if sign == "+" else slice(grid.n // 2 + 1, None)
        spec = HalfLineSignal(sign, grid.dxi, dft(f).values[half])
        a, b = 2.0, 0.7
        lhs = dft(rep_natural(f, AffineElement(a, b))).values[half]

        def mismatch(shift):
            out = rep_fourier_side(spec, a, shift).values
            return np.linalg.norm(lhs - out) / np.linalg.norm(lhs)

        assert mismatch(-b) <= 1e-10
        assert mismatch(b) > 1.0

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("a", [0.7, 1.5, 2.0])
    def test_batch_equals_rows(self, sign, a):
        rows = [decaying_halfline(n=301, sign=sign)]
        rows.append(HalfLineSignal(sign, rows[0].dx, rows[0].values * np.exp(0.2j * np.arange(301))))
        batch = HalfLineSignal(sign, rows[0].dx, np.stack([r.values for r in rows]))
        out = rep_fourier_side(batch, a, 0.4)
        assert out.values.shape == (2, 301)
        assert np.array_equal(out.values, np.stack([rep_fourier_side(r, a, 0.4).values for r in rows]))

    @pytest.mark.parametrize(
        "values, match",
        [
            (np.zeros((2, 3, 4)), "shape"),
            ([1.0, np.nan, 2.0], "finite"),
            ([1.0], "two samples"),
            (np.zeros((3, 1)), "two samples"),
        ],
    )
    def test_values_validated(self, values, match):
        with pytest.raises(ValueError, match=match):
            HalfLineSignal("+", 0.1, values)


def _gather_defect(f, g):
    """The integer-scale mismatch as a plain bin gather: bin k of the
    right-hand side reads bin a*k of dft(f), zero beyond the band."""
    grid = f.grid
    n = grid.n
    s = dft(f).values
    ak = int(g.a) * grid.signed_indices()
    scaled = np.zeros_like(s)
    ok = np.abs(ak) <= n // 2
    scaled[..., ok] = s[..., ak[ok] % n]
    rhs = np.sqrt(g.a) * np.exp(-1j * g.b * grid.frequencies()) * scaled
    lhs = dft(rep_natural(f, g)).values
    diff = np.sqrt(grid.dxi) * np.linalg.norm(lhs - rhs, axis=-1)
    return float(np.max(diff / (np.sqrt(grid.dx) * np.linalg.norm(f.values, axis=-1))))


class TestIntertwining:
    @pytest.mark.parametrize("b", [0.0, 0.3])
    @pytest.mark.parametrize("a", [2, 4])
    @pytest.mark.parametrize("n", [1024, 1001])
    def test_integer_scale_equals_bin_gather(self, n, a, b):
        grid = Grid1D.from_interval(-40.0, 40.0, n)
        f = LineSignal(grid, np.stack([p.values for p in make_probes(
            "gaussian-packet", seed=101, count=3, grid=grid)]))
        g = AffineElement(a, b)
        assert intertwine_defect(f, g) == _gather_defect(f, g)

    def test_non_integer_scale_is_the_half_line_action(self, packets):
        # the right-hand side is rep_fourier_side on the xi > 0 and xi < 0
        # bins, not dilate's own chirp-z: the mismatch is the resampler's
        # interpolation error, far above roundoff
        f = LineSignal(packets[0].grid, np.stack([p.values for p in packets]))
        grid = f.grid
        a, b = 1.5, 0.3
        s = dft(f).values
        ks = grid.signed_indices()
        rhs = np.zeros_like(s)
        rhs[:, ks == 0] = np.sqrt(a) * s[:, ks == 0]
        for sign, half in (("+", ks > 0), ("-", ks < 0)):
            spec = HalfLineSignal(sign, grid.dxi, s[:, half])
            rhs[:, half] = rep_fourier_side(spec, a, -b).values
        lhs = dft(rep_natural(f, AffineElement(a, b))).values
        by_hand = np.max(
            np.sqrt(grid.dxi) * np.linalg.norm(lhs - rhs, axis=-1)
            / (np.sqrt(grid.dx) * np.linalg.norm(f.values, axis=-1))
        )
        got = intertwine_defect(f, AffineElement(a, b))
        assert got == pytest.approx(by_hand, rel=1e-12)
        assert 1e-8 < got < 1e-3

    def test_identity_element(self, packets):
        assert intertwine_defect(packets[0], AffineElement(1, 0)) <= 1e-13

    def test_integer_dilation(self, big_grid):
        x = big_grid.positions()
        f = LineSignal(big_grid, np.exp(-(x**2) / 2.0))
        assert intertwine_defect(f, AffineElement(2, 0)) <= 1e-8

    def test_pure_translation_on_trig_probe(self, grid):
        f = single_bin(grid, 5)
        assert intertwine_defect(f, AffineElement(1, 5 * grid.dx)) <= 1e-10

    def test_frozen_phase_sign(self, grid):
        # translation by b multiplies bin k by exp(-i xi_k b); the opposite
        # sign must fail, pinning the convention
        f = single_bin(grid, 5)
        b = 2.3
        s = dft(f).values
        lhs = dft(translate(f, b)).values
        xi = grid.frequencies()
        good = np.linalg.norm(lhs - s * np.exp(-1j * xi * b))
        bad = np.linalg.norm(lhs - s * np.exp(+1j * xi * b))
        assert good <= 1e-9
        assert bad > 1.0


def _direct_chirp_z(x, a, kmin):
    """O(n^2) sum X_k = sum_j x_j exp(-2 pi i a j (kmin + k) / n)."""
    n = x.shape[0]
    j = np.arange(n)
    return np.exp(-2j * np.pi * a * np.outer(kmin + j, j) / n) @ x


@pytest.mark.parametrize("n", [2, 7, 13, 64, 97, 509, 512])
@pytest.mark.parametrize("a", [0.5, 1.3, 2.0, 4.0])
def test_chirp_z_matches_direct_sum(n, a):
    from hilbertsym.line_ops import _chirp_z

    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    kmin = -((n - 1) // 2)
    got = _chirp_z(x, a, kmin)
    assert np.abs(got - _direct_chirp_z(x, a, kmin)).max() <= 1e-11 * np.abs(x).sum()


# 6000 and 12000 are the largest grids of the bench's size ladder
@pytest.mark.parametrize("n", [512, 750, 4093, 4096, 6000, 12000])
@pytest.mark.parametrize("a", [0.5, 1.3, 2.0, 4.0])
def test_chirp_z_matches_scipy(n, a):
    signal = pytest.importorskip("scipy.signal")
    from hilbertsym.line_ops import _chirp_z

    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    kmin = -((n - 1) // 2)
    w = np.exp(-2j * np.pi * a / n)
    ref = signal.czt(x, m=n, w=w, a=w ** (-kmin))
    assert np.abs(_chirp_z(x, a, kmin) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 5, 16, 33, 64])
def test_pv_quadrature_matches_direct_kernel_sum(n):
    rng = np.random.default_rng(n)
    g = Grid1D(x_min=-1.0, n=n, dx=2.0 / n)
    f = LineSignal(g, rng.normal(size=n) + 1j * rng.normal(size=n))
    j = np.arange(n)
    offsets = j[:, None] - j[None, :]
    kern = np.zeros((n, n))
    kern[offsets != 0] = 1.0 / (np.pi * offsets[offsets != 0])
    direct = kern @ f.values - np.gradient(f.values, g.dx) * (g.dx / np.pi)
    got = hilbert_pv_quadrature(f).values
    assert np.abs(got - direct).max() <= 1e-13 * np.abs(f.values).sum()


def test_import_loads_no_scipy():
    import subprocess
    import sys
    from pathlib import Path

    import hilbertsym

    src = str(Path(hilbertsym.__file__).resolve().parent.parent)
    # the package namespace is lazy, so load every module before looking,
    # and run the non-integer half-line resampling on both half-lines
    code = (
        "import sys, hilbertsym, hilbertsym.cli, hilbertsym.sigio; "
        "[getattr(hilbertsym, n) for n in hilbertsym.__all__]; "
        "[hilbertsym.rep_fourier_side(hilbertsym.HalfLineSignal(s, 0.1, [1, 2, 3, 4]), 1.5, 0.3)"
        " for s in '+-']; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_thresholds_are_module_constants_not_keywords(packets):
    import inspect

    for fn in (hilbert_pv_quadrature, translate, dilate, LineSignal.with_values):
        assert not {"edge_tol", "guard_tol", "flags"} & set(inspect.signature(fn).parameters)
    # the identity shortcuts hand back the input itself
    f = LineSignal(packets[0].grid, packets[0].values, ("edge-decay",))
    assert translate(f, 0.0) is f and dilate(f, 1.0) is f


# --- grid-DFT multipliers against the calibrated transform pair


def off_centre_batch(n):
    """Three packets on a window not centred on 0, held by dilate's guards
    at every a in [0.5, 4]."""
    grid = Grid1D.from_interval(-12.0, 20.0, n)
    x = grid.positions()
    return LineSignal(grid, np.stack([
        np.exp(-(((x - c) / w) ** 2) / 2.0 + 1j * nu * x)
        for c, w, nu in ((0.5, 0.5, 0.0), (1.0, 0.6, 1.5), (1.5, 0.45, -1.0))
    ]))


def assert_rows_close(out, expected, peak, tol):
    assert np.all(np.max(np.abs(out - expected), axis=-1) <= tol * peak)


@pytest.mark.parametrize("n", [255, 256])
@pytest.mark.parametrize("op, symbol", [
    (hilbert_multiplier, lambda g: -1j * sign_symbol(g.signed_indices())),
    (lambda f: hardy_project(f, "+"), lambda g: 0.5 * (1.0 + sign_symbol(g.signed_indices()))),
    (lambda f: hardy_project(f, "-"), lambda g: 0.5 * (1.0 - sign_symbol(g.signed_indices()))),
    (lambda f: translate(f, 0.7), lambda g: np.exp(-1j * g.frequencies() * 0.7)),
], ids=["hilbert", "hardy+", "hardy-", "translate"])
def test_multipliers_equal_the_calibrated_pair(n, op, symbol):
    f = off_centre_batch(n)
    s = dft(f)
    expected = idft(s.with_values(symbol(f.grid) * s.values)).values
    assert_rows_close(op(f).values, expected, np.max(np.abs(f.values), axis=-1), 1e-14)


@pytest.mark.parametrize("n", [255, 256])
@pytest.mark.parametrize("a", [0.5, 1.3, 2.0, 4.0])
def test_dilate_equals_the_calibrated_resampled_spectrum(n, a):
    # the calibrated semidiscrete spectrum at a*xi_k, band-limited, then idft
    f = off_centre_batch(n)
    g = f.grid
    ks = g.signed_indices()
    kmin = int(ks.min())
    wrapped = np.roll(_chirp_z(f.values, a, kmin), kmin, axis=-1)
    s = (g.dx / math.sqrt(2.0 * math.pi)) * np.exp(-1j * a * g.frequencies() * g.x_min) * wrapped
    s[..., np.abs(a * ks) > n // 2] = 0.0
    expected = idft(LineSpectrum(g, math.sqrt(a) * s)).values
    assert_rows_close(dilate(f, a).values, expected, np.max(np.abs(f.values), axis=-1), 1e-13)

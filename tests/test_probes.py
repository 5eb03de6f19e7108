import re

import numpy as np
import pytest

from hilbertsym import (
    AliasingError,
    Grid1D,
    LineSignal,
    dft,
    dilate,
    hilbert_pv_quadrature,
    make_probes,
    norm,
)


def test_deterministic_for_fixed_seed(grid):
    a = make_probes("gaussian-packet", seed=7, count=3, grid=grid)
    b = make_probes("gaussian-packet", seed=7, count=3, grid=grid)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.values, fb.values)
    c = make_probes("trig-poly", seed=7, count=3, K=16)
    d = make_probes("trig-poly", seed=7, count=3, K=16)
    for fc, fd in zip(c, d):
        np.testing.assert_array_equal(fc.coeffs, fd.coeffs)


def test_norms_within_band(grid, packets, bandlimited, trig_probes):
    for f in packets + bandlimited + trig_probes:
        assert 0.5 <= norm(f) <= 2.0


def test_gaussian_tail_mass_outside_grid():
    # width-1 packet on [-40, 40]: measure the tail on a twice-larger grid
    wide = Grid1D.from_interval(-80.0, 80.0, 8192)
    x = wide.positions()
    f = np.exp(-(x**2) / 2.0)
    inside = np.abs(x) <= 40.0
    tail = np.sum(f[~inside] ** 2) / np.sum(f**2)
    assert tail <= 1e-10


def test_gaussian_packet_guards_reject_degenerate_params(grid):
    with pytest.raises(ValueError):
        make_probes("gaussian-packet", seed=1, count=1, grid=grid, width=30.0, center=0.0)
    with pytest.raises(ValueError):
        make_probes("gaussian-packet", seed=1, count=1, grid=grid, width=-1.0)
    with pytest.raises(ValueError):
        make_probes("gaussian-packet", seed=1, count=0, grid=grid)


@pytest.mark.parametrize("count", [True, 2.5, 2.0, "3"])
def test_a_non_integer_count_is_named(grid, count):
    with pytest.raises(ValueError,
                       match=rf"^count must be an integer, got {re.escape(repr(count))}$"):
        make_probes("random-bandlimited", seed=1, count=count, grid=grid)


def test_packet_guards_are_the_line_operators_rules():
    # make_probes rejects a packet for its edges exactly where the quadrature
    # flags edge decay, and for its band exactly where dilation by 1/2 aliases
    grid = Grid1D.from_interval(-40.0, 40.0, 256)
    x = grid.positions()
    params = [(1.25, nu) for nu in np.arange(0.5, 3.0, 0.25)] + [(w, 0.5) for w in (4, 7, 10)]
    verdicts = set()
    for width, nu in params:
        f = LineSignal(grid, np.exp(-(x**2) / (2.0 * width**2)) * np.cos(nu * x))
        try:
            make_probes("gaussian-packet", seed=0, count=1, grid=grid, width=width, center=0.0,
                        modulation=nu, real=True)
            verdict = "accepted"
        except ValueError as exc:
            verdict = "edge" if "decay" in str(exc) else "band"
        try:
            dilate(f, 0.5)
            aliases = False
        except AliasingError:
            aliases = True
        assert (verdict == "edge") == ("edge-decay" in hilbert_pv_quadrature(f).flags)
        if verdict != "edge":
            assert (verdict == "band") == aliases
        verdicts.add(verdict)
    assert verdicts == {"accepted", "edge", "band"}


def test_bandlimited_spectral_guard(grid, bandlimited):
    ks = grid.signed_indices()
    for f in bandlimited:
        s = dft(f).values
        energy = np.abs(s) ** 2
        outside = energy[np.abs(ks) > grid.n // 4].sum()
        assert outside <= 1e-8 * energy.sum()
        # mean-free by construction (up to transform roundoff)
        scale = np.sqrt(energy.sum())
        assert abs(s[0]) <= 1e-14 * scale
        assert abs(s[grid.n // 2]) <= 1e-14 * scale


def test_trig_poly_degree_mask():
    probes = make_probes("trig-poly", seed=3, count=2, K=64, degree=5)
    ks = np.arange(-64, 65)
    for c in probes:
        assert np.all(c.coeffs[np.abs(ks) > 5] == 0)
        assert np.any(c.coeffs[np.abs(ks) <= 5] != 0)


def test_trig_poly_real_symmetry():
    probes = make_probes("trig-poly", seed=3, count=2, K=8, real=True)
    for c in probes:
        np.testing.assert_allclose(c.coeffs, np.conj(c.coeffs[::-1]), atol=1e-12)


def test_trig_poly_degree_errors():
    with pytest.raises(ValueError):
        make_probes("trig-poly", seed=1, count=1, K=8, degree=9)
    with pytest.raises(ValueError):
        make_probes("trig-poly", seed=1, count=1, K=8, degree=-1)


def test_unknown_kind():
    with pytest.raises(ValueError):
        make_probes("sinc-train", seed=1, count=1)


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("gaussian-packet", {"widht": (5.0, 6.0)}),
        ("gaussian-packet", {"degree": 3}),
        ("random-bandlimited", {"band_fraction": 0.25}),
        ("trig-poly", {"width": 1.0, "center": 0.0}),
    ],
)
def test_a_parameter_the_kind_does_not_read_is_rejected(grid, kind, extra):
    unread = ", ".join(repr(k) for k in sorted(extra))
    with pytest.raises(ValueError, match=f"^{kind} probes do not read {unread}$"):
        make_probes(kind, seed=1, count=1, grid=grid, K=8, **extra)

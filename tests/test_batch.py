"""A leading probe axis (P, n) on signal values: every batched operator
equals its per-row results, guards trip for the batch when one row trips,
and the line decomposition matches a dense spectral reference."""

import re

import numpy as np
import pytest

from hilbertsym import (
    AffineElement,
    AliasingError,
    CircleSamples,
    CircleSignal,
    LineSignal,
    MoebiusElement,
    RationalScale,
    cauchy_pv,
    cauchy_symbol,
    circular_hilbert,
    circular_hilbert_quadrature,
    dft,
    dilate,
    hardy_project,
    hilbert_multiplier,
    hilbert_pv_quadrature,
    idft,
    inner_product,
    intertwine_defect,
    moebius_act,
    norm,
    plemelj_project,
    rep_natural,
    semigroup_act,
    semigroup_act_samples,
    translate,
)
from hilbertsym.signals import (
    circle_coeffs_from_samples,
    circle_samples_from_coeffs,
    evaluate_fourier_series,
)
from hilbertsym.symmetry import (
    LineBasis,
    OperatorMatrix,
    decompose_line_operator,
    synthesize_commuting_operator,
)


def _values(out):
    if isinstance(out, np.ndarray):
        return out
    return out.coeffs if isinstance(out, CircleSignal) else out.values


def _stack(rows):
    first = rows[0]
    if isinstance(first, LineSignal):
        return LineSignal(first.grid, np.stack([r.values for r in rows]))
    if isinstance(first, CircleSignal):
        return CircleSignal(np.stack([r.coeffs for r in rows]))
    return CircleSamples(np.stack([r.values for r in rows]))


def _assert_rowwise(op, rows):
    batched = _values(op(_stack(rows)))
    stacked = np.stack([_values(op(r)) for r in rows])
    assert batched.shape == stacked.shape
    assert np.linalg.norm(batched - stacked) <= 1e-14 * np.linalg.norm(stacked)


LINE_OPS = {
    "dft": dft,
    "idft": lambda f: idft(dft(f)),
    "hilbert_multiplier": hilbert_multiplier,
    "hilbert_pv_quadrature": hilbert_pv_quadrature,
    "hardy+": lambda f: hardy_project(f, "+"),
    "hardy-": lambda f: hardy_project(f, "-"),
    "dilate-0.5": lambda f: dilate(f, 0.5),
    "dilate-1.3": lambda f: dilate(f, 1.3),
    "dilate-2": lambda f: dilate(f, 2.0),
    "translate": lambda f: translate(f, 0.37),
    "rep_natural": lambda f: rep_natural(f, AffineElement(2.0, -0.8)),
}


@pytest.mark.parametrize("name", sorted(LINE_OPS))
def test_line_operator_batch_equals_rows(name, packets):
    _assert_rowwise(LINE_OPS[name], packets)


def test_single_row_batch_keeps_its_axis(packets):
    f = _stack(packets[:1])
    assert hilbert_multiplier(f).values.shape == (1, f.grid.n)
    assert dilate(f, 2.0).values.shape == (1, f.grid.n)


@pytest.mark.parametrize("g", [AffineElement(2.0, 0.3), AffineElement(1.5, -0.2)])
def test_intertwine_defect_of_batch_is_worst_row(g, packets):
    rows = [intertwine_defect(f, g) for f in packets]
    assert intertwine_defect(_stack(packets), g) == pytest.approx(max(rows), rel=1e-12)


CIRCLE_OPS = {
    "samples_from_coeffs": lambda c: circle_samples_from_coeffs(c, 80),
    "coeffs_from_samples": lambda c: circle_coeffs_from_samples(
        circle_samples_from_coeffs(c, 80), c.K
    ),
    "evaluate_fourier_series": lambda c: evaluate_fourier_series(
        c, np.linspace(-7.0, 7.0, 53)
    ),
    "circular_hilbert": circular_hilbert,
    "cauchy_pv": cauchy_pv,
    "cauchy_symbol": cauchy_symbol,
    "plemelj_minus": lambda c: plemelj_project(c, "minus"),
    "semigroup_act": lambda c: semigroup_act(c, RationalScale(3, 2, 0.4)),
    "semigroup_act_k_out": lambda c: semigroup_act(c, RationalScale(2, 1, 1.0), k_out=70),
    "semigroup_act_samples": lambda c: semigroup_act_samples(c, RationalScale(2, 3, 0.7), 96),
    "quadrature": lambda c: circular_hilbert_quadrature(circle_samples_from_coeffs(c, 80)),
    "moebius_plain": lambda c: moebius_act(
        circle_samples_from_coeffs(c, 128), MoebiusElement(1.2, 0.3), "plain"
    ),
    "moebius_jacobian": lambda c: moebius_act(
        circle_samples_from_coeffs(c, 128), MoebiusElement(0.4, 0.5), "jacobian"
    ),
}


@pytest.mark.parametrize("name", sorted(CIRCLE_OPS))
def test_circle_operator_batch_equals_rows(name, trig_probes):
    _assert_rowwise(CIRCLE_OPS[name], trig_probes)


def test_semigroup_truncation_guard_sees_every_row():
    K = 6
    low = CircleSignal.from_dict({2: 1.0}, K=K)
    high = CircleSignal.from_dict({6: 1.0}, K=K)
    r = RationalScale(2, 1, 0.0)
    semigroup_act(low, r, k_out=4)
    with pytest.raises(ValueError, match="required K'=12"):
        semigroup_act(_stack([low, high]), r, k_out=4)


def _far_packet(grid, center):
    x = grid.positions()
    return LineSignal(grid, np.exp(-((x - center) ** 2) / 2.0) * np.exp(5j * x))


@pytest.mark.parametrize("a", [0.5, 4.0])
def test_dilate_guard_trips_for_one_bad_row(a, grid, packets):
    if a < 1.0:
        bad = LineSignal(grid, np.random.default_rng(4).normal(size=grid.n))
    else:
        bad = _far_packet(grid, 30.0)
    with pytest.raises(AliasingError) as single:
        dilate(bad, a)
    batch = _stack(packets[:2] + [bad] + packets[2:])
    with pytest.raises(AliasingError, match=re.escape(str(single.value))):
        dilate(batch, a)
    dilate(_stack(packets), a)  # the clean rows alone pass


def test_translate_flags_edge_mass_for_one_row(grid, packets):
    assert translate(_stack(packets), 0.5).flags == ()
    edge = _far_packet(grid, 39.5)
    assert "edge-mass" in translate(edge, 0.5).flags
    assert translate(_stack(packets + [edge]), 0.5).flags == ("edge-mass",)


def test_pv_quadrature_flags_edge_decay_for_one_row(grid, packets):
    assert hilbert_pv_quadrature(_stack(packets)).flags == ()
    batch = _stack(packets + [_far_packet(grid, 39.5)])
    assert hilbert_pv_quadrature(batch).flags == ("edge-decay",)


def test_norm_and_inner_product_stay_single(packets, trig_probes):
    f, g = packets[0], packets[1]
    dx = f.grid.dx
    assert inner_product(f, g) == complex(dx * np.vdot(g.values, f.values))
    assert norm(f) == np.sqrt(dx * np.vdot(f.values, f.values).real)
    c = trig_probes[0]
    assert inner_product(c, c) == complex(np.vdot(c.coeffs, c.coeffs))
    with pytest.raises(ValueError, match="single signal"):
        norm(_stack(packets))
    with pytest.raises(ValueError, match="single signal"):
        inner_product(_stack(trig_probes), _stack(trig_probes))


def test_values_rank_is_checked(grid):
    with pytest.raises(ValueError):
        LineSignal(grid, np.zeros((2, 2, grid.n)))
    with pytest.raises(ValueError):
        LineSignal(grid, np.zeros((3, grid.n - 1)))
    with pytest.raises(ValueError):
        CircleSignal(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# line decomposition against a dense F T F^-1


def _dense_reference(E):
    n = E.shape[0]
    tilde = np.fft.fft(np.eye(n)) @ E @ np.fft.ifft(np.eye(n))
    ks = np.fft.fftfreq(n, 1.0 / n)
    zero = (ks == 0) | ((n % 2 == 0) & (np.abs(ks) == n // 2))
    plus, minus = (ks > 0) & ~zero, (ks < 0) & ~zero
    diag = np.diagonal(tilde)
    k1, k2 = diag[plus].mean(), diag[minus].mean()
    lam = (k1 + k2) / 2.0
    recon = np.where(plus, k1, np.where(minus, k2, lam))
    defect = tilde - np.diag(recon)
    tnorm = np.linalg.norm(E)
    res = [
        0.0 if tnorm == 0.0 else np.linalg.norm(defect[m]) / tnorm for m in (plus, minus, zero)
    ]
    return k1, k2, lam, (k2 - k1) / 2.0j, res


@pytest.mark.parametrize("n", [7, 8, 64])
@pytest.mark.parametrize("kind", ["random", "synthesized", "zero"])
def test_decomposition_matches_dense_reference(n, kind):
    basis = LineBasis(n, -4.0, 8.0 / n)
    rng = np.random.default_rng(n)
    if kind == "random":
        T = OperatorMatrix(basis, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    elif kind == "synthesized":
        T = synthesize_commuting_operator(0.3 - 1.1j, 0.8 + 0.2j, basis)
    else:
        T = OperatorMatrix(basis, np.zeros((n, n)))
    before = T.entries.copy()
    dec = decompose_line_operator(T)
    k1, k2, lam, eta, res = _dense_reference(before)
    scale = max(1.0, np.linalg.norm(before))
    for got, want in ((dec.k1, k1), (dec.k2, k2), (dec.lam, lam), (dec.eta, eta)):
        assert abs(got - want) <= 1e-13 * scale
    got_res = (dec.residual_plus, dec.residual_minus, dec.residual_zero)
    assert np.allclose(got_res, res, rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(T.entries, before)


"""The check registry of the verify suite, and the suite's measured values
against the reference snapshot the benchmark gates on."""

import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertsym import verify
from hilbertsym.verify import (
    _REGISTRY,
    CircleConfig,
    LineGridConfig,
    SuiteConfig,
    _default_tolerances,
    _worst,
    run_verify,
)

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify_measured.json"
RTOL, ATOL = 1e-9, 1e-12  # the rule of the reference snapshot


def small_config(**over):
    counts = {"line": 4, "circle": 4, "roundtrip": 5, "scalarity": 3, "annihilator": 3}
    return SuiteConfig(rng_seed=5, probe_counts=counts, **over)


def declared_records():
    return [record for check in _REGISTRY for record in check.records]


def test_check_ids_are_unique():
    ids = [check_id for check_id, _, _ in declared_records()]
    assert len(ids) == len(set(ids)) == 25


def test_every_tolerance_key_is_a_default_and_every_default_is_used():
    keys = {tol_key for _, tol_key, _ in declared_records()}
    assert keys - {None} == set(_default_tolerances())


def test_all_is_the_union_of_the_three_targets():
    cfg = small_config()
    assert {check.target for check in _REGISTRY} == {"line", "circle", "symmetry"}
    parts = [r for t in ("line", "circle", "symmetry") for r in run_verify(t, cfg).records]
    assert run_verify("all", cfg).records == tuple(sorted(parts, key=lambda r: r.check_id))


@pytest.mark.parametrize(
    "layer_fn, check_ids",
    [
        ("annihilator_witness", ("a10-annihilator-witness", "a10-annihilator-zero")),
        ("cauchy_pv", ("a11-moebius-defect-jacobian", "a11-moebius-defect-plain")),
    ],
)
def test_a_raising_check_fails_all_of_its_records(monkeypatch, layer_fn, check_ids):
    def broken(*args, **kwargs):
        raise RuntimeError(f"{layer_fn} is broken")

    monkeypatch.setattr(verify, layer_fn, broken)
    records = {r.check_id: r for r in run_verify("circle", small_config()).records}
    for check_id in check_ids:
        rec = records[check_id]
        assert rec.measured is None and not rec.passed
        assert rec.note == f"error: {layer_fn} is broken"
    assert records["a02-involution-circle"].passed


def test_annihilator_outcomes_run_once_per_suite(monkeypatch):
    calls = []
    witness = verify.annihilator_witness

    def counted(*args):
        calls.append(None)
        return witness(*args)

    monkeypatch.setattr(verify, "annihilator_witness", counted)
    cfg = small_config()
    assert run_verify("circle", cfg).passed
    assert len(calls) == 2 * cfg.probe_counts["annihilator"]


def test_semigroup_commutation_draws_one_batch_per_scale(monkeypatch):
    # a06's seed and degree depend on (q, p) only, so the elements that differ
    # in beta alone share a batch
    salts = []
    probes = verify._probes

    def counted(cfg, kind, salt, *args, **params):
        salts.append(salt)
        return probes(cfg, kind, salt, *args, **params)

    monkeypatch.setattr(verify, "_probes", counted)
    cfg = SuiteConfig()
    defects = verify._check_semigroup_commutation(cfg)
    scales = {(q, p) for q, p, _ in cfg.rational_set}
    assert len(defects) == len(cfg.rational_set) > len(scales)
    assert sorted(salts) == sorted(24 + 7 * q + 13 * p for q, p in scales)


# --- the one reduction of every record's defects


def ragged(flat):
    """Per-scale lists of per-shift arrays, then a tuple of arrays of different
    shapes and a bare number, then a bare number: the 51 values of ``flat``."""
    parts = iter(np.split(flat, [5, 10, 15, 20, 25, 30, 42, 49, 50]))
    per_scale = [[next(parts)], [next(parts), next(parts), next(parts)], [next(parts), next(parts)]]
    return [per_scale, (next(parts).reshape(3, 4), next(parts), float(next(parts)[0])),
            float(next(parts)[0])]


def test_worst_is_the_max_over_every_leaf_of_a_ragged_nesting():
    flat = np.random.default_rng(3).random(51)
    assert _worst(ragged(flat)).hex() == float(flat.max()).hex()
    for k in range(flat.size):
        top = flat.copy()
        top[k] = 1.5
        assert _worst(ragged(top)).hex() == (1.5).hex()


def test_worst_of_no_defects_is_zero():
    assert _worst([]) == 0.0
    assert _worst([[], (np.empty(0), [])]) == 0.0


def test_a_nan_leaf_anywhere_gives_nan():
    flat = np.random.default_rng(4).random(51)
    for k in range(flat.size):
        poisoned = flat.copy()
        poisoned[k] = np.nan
        assert math.isnan(_worst(ragged(poisoned)))


def test_a_nan_defect_fails_its_record(monkeypatch):
    def nan_defects(cfg):
        nan = [np.zeros(3), (0.0, np.array([1e-20, np.nan]))]
        return nan, nan

    declared = (("x01-nan-defect", "parseval", "returns a NaN among its defects"),
                ("x02-nan-reported", None, "returns a NaN among its defects (reported)"))
    monkeypatch.setattr(verify, "_REGISTRY",
                        [*_REGISTRY, verify._Check("circle", nan_defects, declared, None)])
    report = run_verify("circle", small_config())
    records = {r.check_id: r for r in report.records}
    for check_id in ("x01-nan-defect", "x02-nan-reported"):
        nan = records.pop(check_id)
        assert math.isnan(nan.measured) and nan.passed is False
        assert nan.note == "measured NaN"
    assert all(r.passed for r in records.values())
    # the report stays JSON: a NaN measured value is written as null
    doc = json.loads(json.dumps(report.to_json_dict()),
                     parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
    written = {r["check_id"]: r for r in doc["records"]}
    assert written["x02-nan-reported"]["measured"] is None
    assert written["x02-nan-reported"]["note"] == "measured NaN"
    assert [r for r in doc["records"] if r["measured"] is not None] == [
        r.to_json_dict() for r in records.values()]


@pytest.mark.parametrize("rng_seed", [24])
def test_measured_values_match_the_reference_snapshot(rng_seed):
    reference = json.loads(REFERENCE.read_text())["seeds"][str(rng_seed)]
    report = run_verify("all", SuiteConfig(rng_seed=rng_seed))
    assert report.passed
    measured = {r.check_id: r.measured for r in report.records}
    assert measured.keys() == reference.keys()
    drift = {
        check_id: (m, reference[check_id])
        for check_id, m in measured.items()
        if not abs(m - reference[check_id]) <= RTOL * abs(reference[check_id]) + ATOL
    }
    assert drift == {}


# --- regime rules, each declared at its check

CHECK_ID = re.compile(r"\b[am]\d\d-[a-z-]+")
REGISTERED = {check_id for check_id, _, _ in declared_records()}

# a config change that each check's regime rejects (and no regime the check does not declare)
OUT_OF_REGIME = {
    "a01-multiplier-vs-quadrature": {"line": LineGridConfig(n=1000)},
    "a03-affine-commutation": {"line": LineGridConfig(-20.0, 20.0, 2048)},
    "m03-rep-isometry": {"affine_set": [(0.05, 0.0)]},
    "a06-semigroup-commutation": {"circle": CircleConfig(K=2)},
    "a09-perturbation-flagging": {"circle": CircleConfig(K=1), "rational_set": [(1, 2, 0.0)]},
    "a11-moebius-unitarity": {"circle": CircleConfig(K=16, n_samples=64)},
    "m06-engine-commutator-line": {"operator_n": 255},
}


def forced(change):
    """The default config with ``change`` set past validate()."""
    cfg = SuiteConfig()
    for field, value in change.items():
        setattr(cfg, field, value)
    return cfg


def test_every_regime_rule_has_an_out_of_regime_case():
    with_regime = {check.records[0][0] for check in _REGISTRY if check.regime is not None}
    assert with_regime == set(OUT_OF_REGIME)


@pytest.mark.parametrize("check_id", sorted(OUT_OF_REGIME))
def test_regime_messages_name_their_check_and_only_registered_ones(check_id):
    check = next(c for c in _REGISTRY if c.records[0][0] == check_id)
    change = OUT_OF_REGIME[check_id]
    why = check.regime(forced(change))
    assert check_id in why
    assert set(CHECK_ID.findall(why)) <= REGISTERED
    assert check.regime(SuiteConfig()) is None
    with pytest.raises(ValueError) as exc:
        SuiteConfig(**change)
    assert str(exc.value) == why


def test_several_broken_rules_are_all_named_in_registry_order():
    with pytest.raises(ValueError) as exc:
        SuiteConfig(circle=CircleConfig(K=1))
    assert str(exc.value) == (
        "circle K=1 is below the scale q=2 of rational element (2, 1, 0.0): "
        "a06-semigroup-commutation keeps a scale by q on the degree-K truncation, which "
        "needs q <= K; circle K=1 is too small: a09-perturbation-flagging perturbs one "
        "index in [1, K//2], so K must be at least 2"
    )


def test_a_packet_family_shared_by_several_checks_is_judged_once():
    # a03, m03 and m06 declare one rule: the window (too narrow for the
    # guarded packets) and m06's band (operator_n too small) are each named once
    with pytest.raises(ValueError) as exc:
        SuiteConfig(line=LineGridConfig(-20.0, 20.0, 4096), operator_n=128)
    window, band = str(exc.value).split("; ")
    assert window.startswith("line window [-20, 20] is too narrow: a03-affine-commutation, "
                             "m03-rep-isometry and m06-engine-commutator-line need")
    assert band.startswith("affine scale a=0.5 is too small for operator_n=128 on [-20, 20]: "
                           "m06-engine-commutator-line dilates")


def test_generic_rules_are_checked_before_the_regime_rules():
    # a Blaschke parameter of 1 would divide by zero in a11's sample count
    with pytest.raises(ValueError, match=r"^moebius_set element \(0.0, 1.0\): "
                                         r"Blaschke parameter must lie in"):
        SuiteConfig(circle=CircleConfig(K=1), moebius_set=[(0.0, 1.0)])


def test_validate_names_no_check():
    source = inspect.getsource(SuiteConfig.validate)
    assert CHECK_ID.findall(source) == []
    assert re.findall(r"\b_[A-Z][A-Z0-9_]+\b", source) == ["_REGISTRY"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    half_window=st.sampled_from([20.0, 28.0, 30.0, 40.0, 60.0]),
    n=st.sampled_from([400, 450, 500, 560, 640, 700, 1024, 1536, 2048, 3000, 4096, 6144, 8192]),
    K=st.sampled_from([5, 16, 64, 128, 200]),
    n_samples=st.sampled_from([428, 512, 1024]),
    operator_n=st.sampled_from([300, 384, 480, 512, 640, 768]),
    rng_seed=st.integers(0, 2**32 - 1),
    # a loosened a01 tolerance lets coarse line grids past a01's cubic rule
    a01_tol=st.sampled_from([None, 0.1, 0.15, 0.2]),
    # affine sets whose smallest scale leaves the band rule at 1/2 to make_probes,
    # one of them with shifts far beyond any window
    affine_set=st.sampled_from([None, [(2.0, 0.0)], [(1.0, 0.0)], [(0.9, 0.0), (2.0, 0.25)],
                                [(0.6, 0.0), (4.0, -0.5)], [(2.0, 1e307), (0.5, -1e307)]]),
)
def test_a_config_is_rejected_naming_a_check_or_its_report_passes(
    half_window, n, K, n_samples, operator_n, rng_seed, a01_tol, affine_set
):
    counts = {"line": 6, "circle": 6, "roundtrip": 6, "scalarity": 3, "annihilator": 3}
    tolerances = {} if a01_tol is None else {"multiplier_vs_quadrature": a01_tol}
    try:
        cfg = SuiteConfig(
            rng_seed=rng_seed, line=LineGridConfig(-half_window, half_window, n),
            circle=CircleConfig(K, n_samples), operator_n=operator_n, probe_counts=counts,
            tolerances=tolerances, affine_set=affine_set,
        )
    except ValueError as exc:
        named = set(CHECK_ID.findall(str(exc)))
        assert named and named <= REGISTERED
        return
    report = run_verify("all", cfg)
    assert [r.check_id for r in report.records if not r.passed] == []

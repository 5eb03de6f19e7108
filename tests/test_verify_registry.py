"""The check registry of the verify suite, and the suite's measured values
against the reference snapshot the benchmark gates on."""

import json
from pathlib import Path

import pytest

from hilbertsym import verify
from hilbertsym.verify import _REGISTRY, SuiteConfig, _default_tolerances, run_verify

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

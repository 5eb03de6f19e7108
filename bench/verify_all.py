"""Workload ``verify-all``: in-process ``run_verify("all")`` at the default
``SuiteConfig``, one client, back to back.  The timed suites run as their
three targets in turn, which are the same checks in the same order; the
traced run checks that the merged per-target report equals the ``"all"``
report.

This is the acceptance path every user and every tier-1 run pays for.  One
suite reuses one line grid (n=4096), one circle truncation (K=128) and one
operator size (512) thousands of times, so batching or per-grid caching
shows here.

Correctness: the report must pass, and every record's ``measured`` value
must match the reference snapshot (taken at the commit recorded in the
snapshot) to roundoff, by the rule ``|m - ref| <= RTOL*|ref| + ATOL``.  The
workload seed picks the suite's ``rng_seed`` from the snapshot's seeds.
"""

from __future__ import annotations

import json
import time

import harness
from tracing import Tracer

REFERENCE_PATH = harness.BENCH / "reference" / "verify_measured.json"
REFERENCE_SEEDS = tuple(range(32))
RTOL = 1e-9
ATOL = 1e-12
TARGETS = ("line", "circle", "symmetry")


def rng_seed_for(seed: int) -> int:
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def setup(hs, seed):
    return hs.SuiteConfig(rng_seed=rng_seed_for(seed))


def _reference(cfg) -> dict:
    doc = json.loads(REFERENCE_PATH.read_text())
    return doc["seeds"][str(cfg.rng_seed)]


def record_failures(report, reference) -> list:
    """Check ids of records that fail, drift from the reference or are
    missing from the report."""
    bad = set(reference) - {r.check_id for r in report.records}
    for rec in report.records:
        ref = reference.get(rec.check_id)
        if (not rec.passed or rec.measured is None or ref is None
                or abs(rec.measured - ref) > RTOL * abs(ref) + ATOL):
            bad.add(rec.check_id)
    return sorted(bad)


def _tally(reports, reference) -> tuple:
    """(attempted, failed, mismatched ids) over suite reports; a suite that
    raised counts every reference record as failed."""
    attempted = failed = 0
    mismatched = set()
    for report in reports:
        ids = list(reference) if report is None else record_failures(report, reference)
        attempted += len(reference) if report is None else len(report.records)
        failed += len(ids)
        mismatched.update(ids)
    return attempted, failed, sorted(mismatched)


def _merge(hs, runs):
    """The records of one suite's per-target runs as one ``"all"`` report, or
    None when a target raised."""
    reports = [report for _, report, _ in runs]
    if any(r is None for r in reports):
        return None
    records = sorted((rec for r in reports for rec in r.records), key=lambda rec: rec.check_id)
    return hs.SuiteReport(target="all", version=reports[0].version, config=reports[0].config,
                          records=tuple(records))


def _run_suite(hs, cfg, target="all"):
    t0 = time.perf_counter()
    try:
        report = hs.run_verify(target, cfg)
    except Exception as exc:  # noqa: BLE001 - a crash is one failed operation
        return time.perf_counter() - t0, None, repr(exc)
    return time.perf_counter() - t0, report, None


def measure(hs, seed, seconds):
    """Whole suites back to back, each run as its three targets in turn
    (the same checks, in the same order, as ``run_verify("all")``) with a
    calibration between targets.  A suite's time at the reference host
    speed is the sum over targets of each target's median scaled time."""
    cfg = setup(hs, seed)
    reference = _reference(cfg)
    runs = []

    def target_op(target):
        def op():
            runs.append(_run_suite(hs, cfg, target))
            return runs[-1][0]
        return op

    rounds = harness.calibrated_loop([target_op(t) for t in TARGETS], harness.calibrate,
                                     seconds)
    reports = [_merge(hs, runs[i:i + len(TARGETS)]) for i in range(0, len(runs), len(TARGETS))]
    attempted, failed, mismatched = _tally(reports, reference)
    suite_times = [sum(t for t, _ in r) for r in rounds]
    scaled = [harness.median(harness.at_reference([r[i] for r in rounds], harness.CAL_REF_S))
              for i in range(len(TARGETS))]
    details = {
        "verify_s": harness.median(suite_times),
        "suite_times_s": suite_times,
        "target_times_s": {t: [r[i][0] for r in rounds] for i, t in enumerate(TARGETS)},
        "calibration_s": [[c for _, c in r] for r in rounds],
        "rng_seed": cfg.rng_seed,
        "mismatched": mismatched,
        "errors": [e for _, _, e in runs if e],
    }
    metrics = {
        "op_ref_s": (sum(scaled), "s"),
        "peak_rss_mb": (harness.self_peak_rss_mb(), "MB"),
    }
    return details, attempted, failed, metrics


def traced(hs, seed):
    cfg = setup(hs, seed)
    reference = _reference(cfg)
    t_plain, plain, err_plain = _run_suite(hs, cfg)
    with Tracer(hs) as tracer:
        t_traced, traced_report, err_traced = _run_suite(hs, cfg)
    tracer.write(harness.WORK / f"spans-verify-all-{seed}.json")
    per_target = [_run_suite(hs, cfg, t) for t in TARGETS]
    merged = _merge(hs, per_target)

    attempted, failed, mismatched = _tally([plain, traced_report], reference)

    def same(a, b):
        return (a is not None and b is not None
                and json.dumps(a.to_json_dict(), indent=2) == json.dumps(b.to_json_dict(), indent=2))

    identical = same(plain, traced_report)
    merged_identical = same(plain, merged)
    attempted += 2
    failed += (not identical) + (not merged_identical)
    details = {
        "rng_seed": cfg.rng_seed,
        "traced_report_identical": identical,
        "per_target_report_identical": merged_identical,
        "errors": [e for e in (err_plain, err_traced) if e],
        "mismatched": mismatched,
    }
    extra = {f"verify.{t}_s": run[0] for t, run in zip(TARGETS, per_target)}
    return (tracer.summary(), tracer.counts, details, attempted, failed,
            t_traced / t_plain - 1.0, extra)

"""Workload ``size-ladder``: one pass over a ladder of problem sizes, as a
convergence study visits them, each pass in a fresh process.

Line grids n in LINE_SIZES on [-40, 40] (including the prime n=4093, where
the FFT is several times slower than at 4096), circle truncations K in
CIRCLE_KS with Moebius samples at 4K, and dense operators n in
OPERATOR_SIZES (the 1024 matrices exceed L2).  Each size gets only a few
calls, so per-size caches mostly miss and their memory shows in the peak
RSS.

The Moebius inputs are band-limited trig polynomials sampled well above
their degree, as in the suite's a11 checks, so the known even-n Nyquist loss
of ``moebius_act`` is outside these checks.  Their degree is K/8 at 4K
samples: the a=0.7 element spreads a band by (1+a)/(1-a) ~ 5.7, and at
K=32 a degree of K/4 is not resolved at the unitarity tolerance.

Checks, each one failure when missed:
* the observed order of the multiplier-vs-quadrature agreement under dx
  halving is at least MIN_ORDER, the documented O(dx^2) floor;
* Moebius jacobian unitarity, semigroup averaging, decomposition round trip,
  the +-H classifier and the line engine commutator, at the suite's default
  tolerances.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

import harness
from tracing import Tracer

LINE_SIZES = (750, 1500, 3000, 4093, 6000, 12000)
HALVING_CHAIN = (750, 1500, 3000, 6000, 12000)
CIRCLE_KS = (32, 64, 128, 256)
OPERATOR_SIZES = (256, 512, 1024)
COMMUTATOR_SIZES = (512, 1024)  # the guarded packets do not fit the 256 band
X_MIN, X_MAX = -40.0, 40.0
MOEBIUS = ((0.0, 0.7), (1.2, 0.3))
RATIONAL = ((2, 3, 0.4), (5, 2, 1.0), (1, 4, 0.0))
LINE_PROBES = 2
CIRCLE_PROBES = 2
MIN_ORDER = 2.0


def _seed(seed, *salt):
    return np.random.SeedSequence([seed, *salt])


def _packets(hs, grid, seed):
    # modulated away from the mean bin, as the suite's guarded packets: the
    # periodic multiplier and the truncated-kernel quadrature differ by a
    # term proportional to the mean that does not shrink with dx, and it
    # would mask the quadrature's order on the finest grids
    return hs.make_probes("gaussian-packet", seed=seed, count=LINE_PROBES, grid=grid,
                          width=(1.25, 1.4), center=(-1.0, 1.0), modulation=(4.5, 5.2))


def setup(hs, seed):
    """Probes for every size.  Line probes share one draw of packet
    parameters, so every grid samples the same functions."""
    line = {n: _packets(hs, hs.Grid1D.from_interval(X_MIN, X_MAX, n), _seed(seed, 11))
            for n in LINE_SIZES}
    circle = {}
    for K in CIRCLE_KS:
        trig = hs.make_probes("trig-poly", seed=_seed(seed, 21, K), count=CIRCLE_PROBES, K=K)
        band = hs.make_probes("trig-poly", seed=_seed(seed, 22, K), count=CIRCLE_PROBES,
                              K=K, degree=K // 8)
        samples = [hs.signals.circle_samples_from_coeffs(c, 4 * K) for c in band]
        circle[K] = (trig, samples)
    operators = {}
    rng = np.random.default_rng(_seed(seed, 31))
    for n in OPERATOR_SIZES:
        basis = hs.LineBasis(n, X_MIN, (X_MAX - X_MIN) / n)
        lam = complex(rng.normal(), rng.normal())
        eta = complex(rng.normal(), rng.normal())
        probes = _packets(hs, basis.grid(), _seed(seed, 34, n)) if n in COMMUTATOR_SIZES else None
        operators[n] = (basis, lam, eta, probes)
    return {"line": line, "circle": circle, "operators": operators}


def run_pass(hs, inputs) -> dict:
    """One ladder pass; returns the raw measurements the checks read."""
    out = {"quad_err": {}, "unitarity": [], "averaging": [], "roundtrip": [],
           "verdicts": [], "commutator": []}
    for n, probes in inputs["line"].items():
        dx = probes[0].grid.dx
        worst = 0.0
        central = slice(n // 4, 3 * n // 4)
        for f in probes:
            hm = hs.hilbert_multiplier(f)
            hq = hs.hilbert_pv_quadrature(f)
            err = np.linalg.norm((hq.values - hm.values)[central]) / np.linalg.norm(f.values)
            worst = max(worst, float(err))
            hs.dilate(f, 2.0)
            hs.dilate(f, 0.5)
            hs.translate(f, 7 * dx)
            hs.rep_natural(f, hs.AffineElement(2.0, 3.5 * dx))
        out["quad_err"][n] = worst
    for K, (trig, samples) in inputs["circle"].items():
        for s in samples:
            for theta, a in MOEBIUS:
                m = hs.MoebiusElement(theta, a)
                acted = hs.moebius_act(s, m, "jacobian")
                out["unitarity"].append(abs(hs.norm(acted) / hs.norm(s) - 1.0))
                hs.moebius_act(s, m, "plain")
        for c in trig:
            hs.circular_hilbert(c)
            for q, p, beta in RATIONAL:
                r = hs.RationalScale(q, p, beta)
                closed = hs.semigroup_act(c, r)
                sampled = hs.semigroup_act_samples(c, r, max(2 * closed.K + 2, 64))
                back = hs.signals.circle_coeffs_from_samples(sampled, closed.K)
                out["averaging"].append(float(np.max(np.abs(closed.coeffs - back.coeffs))))
    for n, (basis, lam, eta, probes) in inputs["operators"].items():
        T = hs.synthesize_commuting_operator(lam, eta, basis)
        dec = hs.decompose_line_operator(T)
        out["roundtrip"].append(max(abs(dec.lam - lam), abs(dec.eta - eta), dec.max_residual))
        h_mat = hs.synthesize_commuting_operator(0.0, 1.0, basis)
        out["verdicts"].append(hs.classify_pm_hilbert(h_mat).verdict)
        if probes is not None:
            dx = basis.dx
            actions = [hs.symmetry.line_affine_action(hs.AffineElement(a, b))
                       for a in (0.5, 2.0) for b in (0.0, 7 * dx)]
            out["commutator"].append(hs.commutator_defect(h_mat, actions, probes).max_defect)
    return out


def check_pass(out, tol) -> tuple:
    """(attempted, names of failed checks, observed orders) for one pass,
    against the suite's tolerances ``tol``."""
    errs = [out["quad_err"][n] for n in HALVING_CHAIN]
    orders = [math.log2(e0 / e1) if e1 > 0 else math.inf for e0, e1 in zip(errs, errs[1:])]
    checks = [("quadrature-order", min(orders) >= MIN_ORDER)]
    for key, tol_key in (("unitarity", "moebius_unitarity"), ("averaging", "semigroup_averaging"),
                         ("roundtrip", "decomposition_roundtrip"),
                         ("commutator", "engine_commutator_line")):
        checks += [(f"{key}[{i}]", v <= tol[tol_key]) for i, v in enumerate(out[key])]
    checks += [(f"verdicts[{i}]", v == "plus-H") for i, v in enumerate(out["verdicts"])]
    return len(checks), [name for name, ok in checks if not ok], orders


def timed_pass(hs, inputs):
    t0 = time.perf_counter()
    out = run_pass(hs, inputs)
    return time.perf_counter() - t0, out


def child_pass(hs, seed, trace: bool) -> dict:
    """Body of one pass process: set up, time one pass (traced or not),
    check it.  An untraced pass sits between two calibrations.
    ``setup_done`` is on the system-wide monotonic clock, so the parent can
    measure set-up from its own spawn time."""
    inputs = setup(hs, seed)
    result = {"setup_done": time.perf_counter()}
    if trace:
        with Tracer(hs) as tracer:
            pass_s, out = timed_pass(hs, inputs)
        tracer.write(harness.WORK / f"spans-size-ladder-{seed}.json")
        result.update(summary=tracer.summary(), counts=dict(tracer.counts))
    else:
        before = harness.calibrate()
        pass_s, out = timed_pass(hs, inputs)
        result["calibration_s"] = 0.5 * (before + harness.calibrate())
    attempted, failures, orders = check_pass(out, hs.SuiteConfig().tolerances)
    result.update(pass_s=pass_s, attempted=attempted,
                  failures=failures, orders=orders, rss_mb=harness.self_peak_rss_mb())
    return result


def _spawn_pass(seed, trace: bool) -> dict:
    argv = [sys.executable, str(harness.BENCH / "run.py"), "--workload", "size-ladder",
            "--seed", str(seed), "--ladder-pass", "--trace", str(int(trace))]
    res = harness.run_child(argv, cwd=harness.ROOT)
    if res["returncode"] != 0:
        return {"error": res["stderr"][-2000:]}
    child = json.loads(res["stdout"].splitlines()[-1])
    child["setup_s"] = child["setup_done"] - res["start"]
    child["rss_mb"] = res["rss_mb"]
    return child


def _tally(passes):
    attempted = failed = 0
    errors = []
    for p in passes:
        if "error" in p:
            attempted += 1
            failed += 1
            errors.append(p["error"])
        else:
            attempted += p["attempted"]
            failed += len(p["failures"])
    return attempted, failed, errors


def measure(hs, seed, seconds):
    """Passes back to back, each spawned between two cold calibrations,
    which scale its set-up; the pass itself is scaled by the in-process
    calibrations around it."""
    passes = []

    def op():
        passes.append(_spawn_pass(seed, False))
        return passes[-1].get("setup_s")

    rounds = harness.calibrated_loop([op], harness.cold_calibrate, seconds)
    setup_pairs = [r[0] for r in rounds if r[0] is not None]
    ok = [p for p in passes if "error" not in p]
    attempted, failed, errors = _tally(passes)
    if not ok:
        raise RuntimeError(f"every ladder pass failed: {errors[:1]}")
    pass_pairs = [(p["pass_s"], p["calibration_s"]) for p in ok]
    details = {
        "ladder_s": harness.median([t for t, _ in pass_pairs]),
        "pass_times_s": [t for t, _ in pass_pairs],
        "calibration_s": [c for _, c in pass_pairs],
        "setup_samples_s": [t for t, _ in setup_pairs],
        "setup_calibration_s": [c for _, c in setup_pairs],
        "observed_orders": ok[0]["orders"],
        "failed_checks": sorted({f for p in ok for f in p["failures"]}),
        "errors": errors,
    }
    metrics = {
        "op_ref_s": (harness.median(harness.at_reference(pass_pairs, harness.CAL_REF_S)), "s"),
        "setup_s": (harness.median(
            harness.at_reference(setup_pairs, harness.COLD_CAL_REF_S)), "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in ok), "MB"),
    }
    return details, attempted, failed, metrics


def traced(hs, seed):
    plain = _spawn_pass(seed, False)
    traced_pass = _spawn_pass(seed, True)
    attempted, failed, errors = _tally([plain, traced_pass])
    if errors:
        raise RuntimeError(f"ladder pass failed: {errors[0]}")
    details = {"observed_orders": traced_pass["orders"],
               "failed_checks": sorted(set(plain["failures"]) | set(traced_pass["failures"]))}
    return (traced_pass["summary"], traced_pass["counts"], details, attempted, failed,
            traced_pass["pass_s"] / plain["pass_s"] - 1.0, {})

"""Benchmark runner for hilbertsym.

    python3 bench/run.py --workload {verify-all,cli-files,size-ladder} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``
directory.  With ``--trace 0`` the last line of standard output is the
result with the end-to-end metrics; with ``--trace 1`` a separate traced run
gives the per-layer metrics.  The line before it holds the run's details:
seed, git SHA, versions, ``nproc``, the BLAS thread cap, ``failed_frac``,
the workload's own named timings as raw wall seconds, and the calibrations
they were scaled by.

End-to-end times are seconds at the reference host speed (see
``harness.calibrated_loop`` and ``harness.CAL_REF_S``): ``op_ref_s`` is the
median operation (a CLI command, a ladder pass; a verify suite as the sum of
its three targets' medians) and ``setup_s`` the median of fresh interpreters
that import the program and build the inputs.  ``peak_rss_mb`` is the peak resident set of the process
doing the work.

Exits non-zero, without a result, when the checkout holds no program
source.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness  # caps BLAS threads before numpy is imported
import cli_files
import size_ladder
import verify_all
from tracing import layer_metrics

WORKLOADS = {"verify-all": verify_all, "cli-files": cli_files, "size-ladder": size_ladder}
SETUP_REPEATS = 3
IMPORT_REPEATS = 3


def import_cost(repeats: int) -> float:
    """Fresh-interpreter ``import hilbertsym`` minus a numpy-only interpreter."""
    def wall(code):
        res = harness.run_child([sys.executable, "-c", code], cwd=harness.ROOT)
        if res["returncode"] != 0:
            raise RuntimeError(f"import child failed: {res['stderr'][-2000:]}")
        return res["wall_s"]

    pkg, base = [], []
    for _ in range(repeats):
        pkg.append(wall("import hilbertsym"))
        base.append(wall("import numpy"))
    return harness.median(pkg) - harness.median(base)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--ladder-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        hs = harness.import_program()
    except harness.MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(hs, args.seed)
        return 0
    if args.ladder_pass:
        print(json.dumps(wl.child_pass(hs, args.seed, bool(args.trace))))
        return 0

    details = {"workload": args.workload, **harness.environment(args.seed)}
    if args.trace:
        summary, counts, info, attempted, failed, overhead, extra = wl.traced(hs, args.seed)
        extra = dict(extra, **{"trace_overhead_frac": overhead,
                               "cli.import_s": import_cost(IMPORT_REPEATS)})
        metrics = layer_metrics(summary, counts, extra)
    else:
        info, attempted, failed, metrics = wl.measure(hs, args.seed, args.seconds)
        if "setup_s" not in metrics:
            setup = harness.measure_setup(args.workload, args.seed, SETUP_REPEATS)
            info["setup_samples_s"] = [wall for wall, _ in setup]
            info["setup_calibration_s"] = [cal for _, cal in setup]
            metrics["setup_s"] = (harness.median(
                harness.at_reference(setup, harness.COLD_CAL_REF_S)), "s")
    details.update(info)
    details["failed_frac"] = failed / attempted
    harness.emit(details, attempted, failed, metrics, correct=failed == 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())

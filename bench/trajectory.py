"""Run the benchmark over several seeds and record one trajectory point.

    python3 bench/trajectory.py --label seed-commit --seeds 1 2 3 4 5 6 7 8 9 10

Every workload in BENCHMARK.json runs once per seed untraced, then once
traced on the first seed.  The point, written to
``bench/trajectory/<label>.json``, holds every run's result line and
details, and for each end-to-end metric the median, the quartiles and the
spread (quartile distance over median) as ``statistics.quantiles`` gives
them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(lines[-1]), "details": json.loads(lines[-2])}


def summarize(runs) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[metric["name"]] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": metric["bound"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    args = ap.parse_args()

    point = {"label": args.label, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, 0))
            print(workload, seed, json.dumps(runs[-1]["result"]["metrics"]), flush=True)
        traced = run_once(workload, args.seeds[0], 1)
        point["workloads"][workload] = {
            "summary": summarize(runs),
            "failed": sum(r["result"]["failed"] for r in runs + [traced]),
            "attempted": sum(r["result"]["attempted"] for r in runs + [traced]),
            "runs": runs,
            "traced": traced,
        }
        for name, s in point["workloads"][workload]["summary"].items():
            print(f"{workload} {name}: median {s['median']:.4g} {s['unit']}, "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)
    point["environment"] = {k: v for k, v in runs[0]["details"].items()
                            if k in ("git_sha", "python", "numpy", "scipy", "nproc",
                                     "blas_threads", "platform")}
    out = ROOT / "bench" / "trajectory" / f"{args.label}.json"
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the verification suite in this one process: for each registered
check, the minimum over ``--repeat`` calls, in milliseconds, of the check's
own function on the default config (one row per check, named by its first
record id), then the same for the whole ``run_verify("all")``.

One untimed ``run_verify("all")`` warms the process first, so every row is
a warm figure.  The checks run on the CPUs of this process's affinity mask,
as the suite does: the line checks a01, a03 and m02 split their probe
rows over them.  Run the script under ``taskset -c 0`` for the one-CPU figures.

Example:
    python scripts/check_times.py --repeat 10
    taskset -c 0 python scripts/check_times.py --repeat 10
"""

import argparse

from engine_layers import best_ms

from hilbertsym.verify import _REGISTRY, SuiteConfig, run_verify


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    cfg = SuiteConfig()
    run_verify("all", cfg)
    print(f"{'check':<32} {'ms':>9}   (min of {args.repeat})")
    for check in _REGISTRY:
        ms = best_ms(lambda: check.fn(cfg), args.repeat)
        print(f"{check.records[0][0]:<32} {ms:9.2f}")
    print(f"{'all':<32} {best_ms(lambda: run_verify('all', cfg), args.repeat):9.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the dense-engine layers in this one process: the minimum over
``--repeat`` calls, in milliseconds, of synthesize_commuting_operator,
decompose_line_operator, classify_pm_hilbert (on H) and commutator_defect
(H against two probes) for each line operator size.

The commutator actions are translations (b = 0, 3.5 dx, 7 dx), so every
size runs the same engine work: the dilations of the size-ladder benchmark
need packets that fit the band, which on [-40, 40] only happens from
n = 512.  A fresh process per run gives the cold-cache figures the size
ladder sees.

Example:
    python scripts/engine_layers.py --sizes 256 512 1024 --repeat 5
"""

import argparse
import time

from hilbertsym import (
    AffineElement,
    LineBasis,
    classify_pm_hilbert,
    commutator_defect,
    decompose_line_operator,
    make_probes,
    synthesize_commuting_operator,
)
from hilbertsym.symmetry import line_affine_action


def best_ms(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"{'n':>6} {'synthesize':>11} {'decompose':>11} {'classify':>11} {'commutator':>11}"
          "   (ms, min of {})".format(args.repeat))
    for n in args.sizes:
        basis = LineBasis(n, -40.0, 80.0 / n)
        lam, eta = 0.3 - 0.2j, 1.0 + 0.5j
        T = synthesize_commuting_operator(lam, eta, basis)
        h_mat = synthesize_commuting_operator(0.0, 1.0, basis)
        probes = make_probes("random-bandlimited", seed=0, count=2, grid=basis.grid())
        actions = [line_affine_action(AffineElement(1.0, b * basis.dx)) for b in (0.0, 3.5, 7.0)]
        row = (
            best_ms(lambda: synthesize_commuting_operator(lam, eta, basis), args.repeat),
            best_ms(lambda: decompose_line_operator(T), args.repeat),
            best_ms(lambda: classify_pm_hilbert(h_mat), args.repeat),
            best_ms(lambda: commutator_defect(h_mat, actions, probes), args.repeat),
        )
        print(f"{n:6d} " + " ".join(f"{t:11.3f}" for t in row))


if __name__ == "__main__":
    main()

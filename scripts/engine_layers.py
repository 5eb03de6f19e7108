#!/usr/bin/env python3
"""Time the engine layers in this one process: the minimum over
``--repeat`` calls, in milliseconds, of synthesize_commuting_operator,
decompose_line_operator on the synthesized lam*I + eta*H (read from the
symbol it keeps), as decompose_copy on a copy of its entries built in the
same call (the path of a saved and loaded operator: construction finds the
circulant and its symbol, which the decomposition reads) and, as
decompose_dense, on that copy with one entry moved by one ulp (not a
circulant, so conjugated by the DFT in full), classify_pm_hilbert on the
synthesized H and on I (both tested on their symbol; I fails at
anti-symmetry) and commutator_defect (the synthesized H against two
probes) for each line operator size.

After the timing loop, one tracemalloc pass calls each layer once more and
prints its traced peak allocation in MB (numpy arrays included; memory held
before the call is not counted).

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
import tracemalloc

import numpy as np

from hilbertsym import (
    AffineElement,
    LineBasis,
    OperatorMatrix,
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


def peak_mb(calls):
    """Traced peak allocation of each call, in MB, in one tracemalloc pass."""
    peaks = []
    tracemalloc.start()
    try:
        for fn in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
    finally:
        tracemalloc.stop()
    return peaks


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    layers = ("synthesize", "decompose", "decompose_copy", "decompose_dense", "classify",
              "classify_I", "commutator")
    print(f"{'n':>6} " + " ".join(f"{name:>15}" for name in layers)
          + " " + " ".join(f"{name + '_MB':>18}" for name in layers)
          + f"   (ms, min of {args.repeat}; MB, traced peak of one call)")
    for n in args.sizes:
        basis = LineBasis(n, -40.0, 80.0 / n)
        lam, eta = 0.3 - 0.2j, 1.0 + 0.5j
        T = synthesize_commuting_operator(lam, eta, basis)
        off = T.entries.copy()
        off[1, 0] = complex(np.nextafter(off[1, 0].real, np.inf), off[1, 0].imag)
        T_off = OperatorMatrix(basis, off)
        h_mat = synthesize_commuting_operator(0.0, 1.0, basis)
        ident = synthesize_commuting_operator(1.0, 0.0, basis)
        probes = make_probes("random-bandlimited", seed=0, count=2, grid=basis.grid())
        actions = [line_affine_action(AffineElement(1.0, b * basis.dx)) for b in (0.0, 3.5, 7.0)]
        calls = (
            lambda: synthesize_commuting_operator(lam, eta, basis),
            lambda: decompose_line_operator(T),
            lambda: decompose_line_operator(OperatorMatrix(basis, T.entries)),
            lambda: decompose_line_operator(T_off),
            lambda: classify_pm_hilbert(h_mat),
            lambda: classify_pm_hilbert(ident),
            lambda: commutator_defect(h_mat, actions, probes),
        )
        times = [best_ms(fn, args.repeat) for fn in calls]
        print(f"{n:6d} " + " ".join(f"{t:15.3f}" for t in times)
              + " " + " ".join(f"{mb:18.3f}" for mb in peak_mb(calls)))


if __name__ == "__main__":
    main()

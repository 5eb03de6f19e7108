#!/usr/bin/env python3
"""Sweep scale/shift group elements and print the commutator defect of the
line Hilbert transform against each, plus the intertwining defect of the
frequency-side form.  The probes go through every operator as one batch.

Example:
    python scripts/commutation_sweep.py --n 2048 --seed 3 --dat sweep.dat
"""

import argparse

import numpy as np

from hilbertsym import (
    AffineElement,
    Grid1D,
    LineSignal,
    hilbert_multiplier,
    intertwine_defect,
    make_probes,
    rep_natural,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--x-span", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--probes", type=int, default=8)
    ap.add_argument("--scales", type=float, nargs="+", default=[0.5, 1.0, 2.0, 4.0])
    ap.add_argument("--shifts", type=float, nargs="+", default=None,
                    help="defaults to multiples of the grid spacing")
    ap.add_argument("--dat", help="write two-column (index, defect) data here")
    args = ap.parse_args()

    grid = Grid1D.from_interval(-args.x_span, args.x_span, args.n)
    shifts = args.shifts if args.shifts is not None else [0.0, 7 * grid.dx, 3.5 * grid.dx]
    probes = make_probes(
        "gaussian-packet", seed=args.seed, count=args.probes, grid=grid,
        width=(1.25, 1.4), center=(-1.0, 1.0), modulation=(4.5, 5.2),
    )
    f = LineSignal(grid, np.stack([p.values for p in probes]))
    hf = hilbert_multiplier(f)
    fn = np.linalg.norm(f.values, axis=-1)

    rows = []
    print(f"{'a':>8} {'b':>10} {'commutator':>12} {'intertwine':>12}")
    for a in args.scales:
        for b in shifts:
            g = AffineElement(a, b)
            diff = hilbert_multiplier(rep_natural(f, g)).values - rep_natural(hf, g).values
            worst = float(np.max(np.linalg.norm(diff, axis=-1) / fn))
            iw = intertwine_defect(f, g)
            rows.append(worst)
            print(f"{a:8.3f} {b:10.4f} {worst:12.3e} {iw:12.3e}")

    if args.dat:
        with open(args.dat, "w") as fh:
            for i, d in enumerate(rows):
                fh.write(f"{i} {d:.17g}\n")
        print(f"wrote {args.dat}")


if __name__ == "__main__":
    main()

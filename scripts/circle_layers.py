#!/usr/bin/env python3
"""Time the circle layers in this one process: the minimum over
``--repeat`` calls, in milliseconds, of semigroup_act (the coefficient
closed form), semigroup_act_samples (its root-of-unity averaging oracle, at
the sample count the suite's a05 check uses), moebius_act with the plain
and the jacobian weight, and circular_hilbert, for each truncation degree
K.

Each call takes a batch of two signals with the size-ladder benchmark's
shapes: trig polynomials of degree K for the semigroup and the Hilbert
transform, and for the Moebius action band-limited ones of degree K/8
sampled at 4K angles.  The rational element is pi(2/3, 0.4) and the disc automorphism
theta = 0, a = 0.7.

After the timing loop, one tracemalloc pass calls each layer once more and
prints its traced peak allocation in MB (numpy arrays included; memory held
before the call is not counted).

Example:
    python scripts/circle_layers.py --K 32 64 128 256 --repeat 5
"""

import argparse

from engine_layers import best_ms, peak_mb

from hilbertsym import (
    MoebiusElement,
    RationalScale,
    circular_hilbert,
    make_probes,
    moebius_act,
    semigroup_act,
    semigroup_act_samples,
)
from hilbertsym.signals import circle_samples_from_coeffs, stack_signals


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--K", type=int, nargs="+", default=[32, 64, 128, 256])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    layers = ("semigroup", "samples", "moebius_plain", "moebius_jacobian", "hilbert")
    print(f"{'K':>6} " + " ".join(f"{name:>16}" for name in layers)
          + " " + " ".join(f"{name + '_MB':>19}" for name in layers)
          + f"   (ms, min of {args.repeat}; MB, traced peak of one call)")
    r = RationalScale(2, 3, 0.4)
    m = MoebiusElement(0.0, 0.7)
    for K in args.K:
        trig = stack_signals(make_probes("trig-poly", seed=K, count=2, K=K))
        band = stack_signals(make_probes("trig-poly", seed=K + 1, count=2, K=K,
                                         degree=max(1, K // 8)))
        samples = circle_samples_from_coeffs(band, 4 * K)
        n_samples = max(2 * semigroup_act(trig, r).K + 2, 64)
        calls = (
            lambda: semigroup_act(trig, r),
            lambda: semigroup_act_samples(trig, r, n_samples),
            lambda: moebius_act(samples, m, "plain"),
            lambda: moebius_act(samples, m, "jacobian"),
            lambda: circular_hilbert(trig),
        )
        times = [best_ms(fn, args.repeat) for fn in calls]
        print(f"{K:6d} " + " ".join(f"{t:16.3f}" for t in times)
              + " " + " ".join(f"{mb:19.3f}" for mb in peak_mb(calls)))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Monte Carlo cross-check: empirical tails of the simulated radial SDE
against the analytic values, plus a coupled step-halving bias probe."""

import argparse
import math

from hypbm import SimulationConfig, empirical_tail, ks_distance_to_normal, simulate_radial_pair, tail


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, nargs="+", default=[3, 4])
    ap.add_argument("--t", type=float, default=10.0)
    ap.add_argument("--x", type=float, nargs="+", default=[-1.0, 0.0, 1.0])
    ap.add_argument("--paths", type=int, default=100_000)
    ap.add_argument("--step", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    for d in args.d:
        cfg = SimulationConfig(d=d, t=args.t, paths=args.paths, seed=args.seed, step=args.step)
        coarse, fine = simulate_radial_pair(cfg)
        print(f"d={d}, t={args.t:g}, {args.paths} paths, step {args.step:g}:")
        for x, est in zip(args.x, tail(d, args.t, args.x)):
            ec = empirical_tail(coarse, d, args.t, x)
            ef = empirical_tail(fine, d, args.t, x)
            analytic = est.value
            z = (ec.estimate - analytic) / ec.standard_error
            halving = (ec.estimate - ef.estimate) / math.hypot(ec.standard_error, ef.standard_error)
            print(
                f"  x={x:+.1f}: mc {ec.estimate:.5f} +- {ec.standard_error:.5f}  "
                f"analytic {analytic:.5f}  z={z:+.2f}  halving-shift z={halving:+.2f}"
            )
        print(f"  KS distance to normal: {ks_distance_to_normal(coarse, d, args.t):.4f}")


if __name__ == "__main__":
    main()

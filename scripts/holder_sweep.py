"""Fit the time-continuity exponent of the measure path across depths.

For each tree depth the script simulates independent paths of the
evolving uniform cascade, pools Wasserstein distances between snapshot
pairs at dyadic lags, and fits log distance against log lag.  The
slope should sit near 1/2 at every depth once the truncation floor
2^-depth is well below the typical distances.  Paths are streamed into
the distance reader and never stored, so memory does not grow with the
number of grid times; the process's peak RSS so far is printed to
stderr after each depth.  A lag L's pairs start on multiples of
ceil(L/2), so long lags get fewer pairs than the pair budget (lag 64
over 129 times: 3 pairs), and the reader holds at most 2 * len(lags) + 1
snapshots whatever the budget.

    python3 scripts/holder_sweep.py --depths 8 10 12 --replicas 8 -o holder.csv
"""

import argparse
import csv
import resource
import sys

from treecascade import engine, transport, tree
from treecascade import weights as wp
from treecascade.rng import derive_seed, derive_seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depths", type=int, nargs="+", default=[8, 10, 12], help="tree depths in levels")
    ap.add_argument("--t-end", type=float, default=0.5, help="path duration (model time units)")
    ap.add_argument("--log2-step", type=int, default=8, help="grid step is 2^-this (model time units)")
    ap.add_argument("--replicas", type=int, default=8, help="independent paths per depth")
    ap.add_argument("--pair-budget", type=int, default=48, help="snapshot pairs per lag per path")
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("-o", "--output", default="holder_sweep.csv", help="output CSV path")
    args = ap.parse_args(argv)

    spec = wp.gaussian_spec()
    grid = engine.make_grid(args.t_end, 2.0**-args.log2_step)

    rows = []
    for depth in args.depths:
        base = tree.uniform_flow(depth)
        seeds = derive_seeds(derive_seed(args.seed, depth), args.replicas)
        paths = (engine.stream_path(base, spec, grid, seed=int(s)) for s in seeds)
        fit = transport.holder_exponent(paths, pair_budget=args.pair_budget)
        rows.append(
            [depth, repr(fit.slope), repr(fit.slope_se), repr(fit.r_squared), fit.n_pairs]
        )
        # ru_maxrss is in KiB on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"depth {depth}: slope {fit.slope:.4f} +- {fit.slope_se:.4f}, peak RSS {peak_mb:.0f} MB",
            file=sys.stderr,
        )

    with open(args.output, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["depth", "slope", "slope_se", "r_squared", "n_pairs"])
        w.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

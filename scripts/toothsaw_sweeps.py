#!/usr/bin/env python3
"""Desk-scale experiment: zone counts and refinement sweeps on the saw cube.

Reproduces the calibration numbers (21 zones at lambda 9.9, one zone at 10)
and prints the region-count curves for both refinement passes at lambda 10.
`hsseg sweep` writes such a curve as CSV rows.
"""

import argparse

from hsseg import Connectivity, MetricKind, SeedOrder, prepare, tooth_saw_cube
from hsseg.cli import parse_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=10.0,
                        help="sweep increment for eta and mu (default 10)")
    parser.add_argument("--stop", type=float, default=100.0,
                        help="sweep end value (default 100)")
    args = parser.parse_args()
    try:
        values = parse_grid(f"0:{args.stop}:{args.step}")
    except ValueError as exc:
        parser.error(str(exc))

    cube = tooth_saw_cube()
    print(f"tooth-saw cube: {cube.width}x{cube.height}x{cube.bands}")
    for lam in (9.9, 10.0):
        pipeline = prepare(cube, MetricKind.EUCLIDEAN, lam, Connectivity.FOUR,
                           SeedOrder.MEDIAN_FIRST)
        print(f"lambda={lam:<4}: {pipeline.flat.count} flat zone(s)")

    # The lambda 10 pipeline: both passes and every value share its one
    # median-first seed ordering.
    print(f"\nrefinement sweeps at lambda=10 ({len(values)} values)")
    print(f"{'param':>8}  {'eta regions':>12}  {'mu regions':>12}")
    for value in values:
        eta, mu = (pipeline.refine(algo, value).count for algo in ("eta", "mu"))
        print(f"{value:>8g}  {eta:>12}  {mu:>12}")

    total = pipeline.edge_weights.total_weight()
    forced = pipeline.refine("mu", total)
    print(f"\nmu at the total edge weight ({total:g}): {forced.count} region(s)")


if __name__ == "__main__":
    main()

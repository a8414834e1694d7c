#!/usr/bin/env python3
"""Desk-scale experiment: zone counts and refinement sweeps on the saw cube.

Reproduces the calibration numbers (21 zones at lambda 9.9, one zone at 10)
and prints the region-count curves for both refinement passes at lambda 10,
optionally appending them to a CSV sweep file.
"""

import argparse
import time

from hsseg import (Connectivity, MetricKind, SeedOrder, SegmentationReport,
                   append_sweep_row, prepare, tooth_saw_cube)
from hsseg.cli import parse_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", help="append sweep rows to this file")
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
        t0 = time.perf_counter()
        eta_out = pipeline.refine("eta", value)
        eta_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        mu_out = pipeline.refine("mu", value)
        mu_ms = (time.perf_counter() - t0) * 1000
        print(f"{value:>8g}  {eta_out.count:>12}  {mu_out.count:>12}")
        if args.csv:
            for algo, out, ms in (("eta", eta_out, eta_ms), ("mu", mu_out, mu_ms)):
                append_sweep_row(SegmentationReport.from_labels(
                    out, algorithm=algo, metric="euclidean", lam=10.0,
                    param=value, connectivity=4, seed_order="median",
                    millis=ms), args.csv)

    total = pipeline.edge_weights.total_weight()
    forced = pipeline.refine("mu", total)
    print(f"\nmu at the total edge weight ({total:g}): {forced.count} region(s)")


if __name__ == "__main__":
    main()

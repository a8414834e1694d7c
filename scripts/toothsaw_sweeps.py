#!/usr/bin/env python3
"""Desk-scale experiment: zone counts and refinement sweeps on the saw cube.

Reproduces the calibration numbers (21 zones at lambda 9.9, one zone at 10)
and prints the region-count curves for both refinement passes at lambda 10,
optionally appending them to a CSV sweep file.
"""

import argparse
import time

from hsseg import (Connectivity, EtaParams, LambdaParams, MetricKind,
                   MuParams, SeedOrder, SegmentationReport, append_sweep_row,
                   build_edge_weights, build_metric, eta_bounded_regions,
                   lambda_flat_zones, mu_geodesic_balls, order_classes,
                   tooth_saw_cube)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", help="append sweep rows to this file")
    parser.add_argument("--step", type=float, default=10.0,
                        help="sweep increment for eta and mu (default 10)")
    parser.add_argument("--stop", type=float, default=100.0,
                        help="sweep end value (default 100)")
    args = parser.parse_args()

    cube = tooth_saw_cube()
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    edges = build_edge_weights(metric, Connectivity.FOUR)

    print(f"tooth-saw cube: {cube.width}x{cube.height}x{cube.bands}")
    for lam in (9.9, 10.0):
        zones = lambda_flat_zones(cube, LambdaParams(metric, lam),
                                  edge_weights=edges)
        print(f"lambda={lam:<4}: {zones.count} flat zone(s)")

    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0), edge_weights=edges)
    # Both passes and every value share one median-first seed ordering.
    ordering = order_classes(flat, metric, SeedOrder.MEDIAN_FIRST)
    values = []
    v = 0.0
    while v <= args.stop + 1e-9:
        values.append(v)
        v += args.step

    print(f"\nrefinement sweeps at lambda=10 ({len(values)} values)")
    print(f"{'param':>8}  {'eta regions':>12}  {'mu regions':>12}")
    for value in values:
        t0 = time.perf_counter()
        eta_out = eta_bounded_regions(cube, metric, flat, EtaParams(value),
                                      edge_weights=edges, ordering=ordering)
        eta_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        mu_out = mu_geodesic_balls(cube, metric, flat, MuParams(value),
                                   edge_weights=edges, ordering=ordering)
        mu_ms = (time.perf_counter() - t0) * 1000
        print(f"{value:>8g}  {eta_out.count:>12}  {mu_out.count:>12}")
        if args.csv:
            for algo, out, ms in (("eta", eta_out, eta_ms), ("mu", mu_out, mu_ms)):
                append_sweep_row(SegmentationReport.from_labels(
                    out, algorithm=algo, metric="euclidean", lam=10.0,
                    param=value, connectivity=4, seed_order="median",
                    millis=ms), args.csv)

    forced = mu_geodesic_balls(cube, metric, flat,
                               MuParams(edges.total_weight()),
                               edge_weights=edges, ordering=ordering)
    print(f"\nmu at the total edge weight ({edges.total_weight():g}): "
          f"{forced.count} region(s)")


if __name__ == "__main__":
    main()

"""Command-line front end wiring ingestion, segmentation passes and reports.

The CLI is a thin shell over the library: every emitted artifact is exactly
what the corresponding library call produces. The refinement commands first
build the flat-zone partition for the given lambda; passing "inf" runs the
refinement on the whole image as a single class.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .errors import CubeFormatError, DegenerateMarginalError, RegionSizeCapError
from .grid import Connectivity, LabelMap, relabel_dense
from .io import (SegmentationReport, append_sweep_row, label_file, load_cube,
                 read_label_values, write_cube, write_labels, write_report)
from .metrics import MetricKind
from .pipeline import Pipeline, _check_nonneg, prepare
from .seeds import SeedOrder
from .synth import tooth_saw_cube

# (exception types, exit code, meaning): a failure exits with the code of the
# first row whose types it is an instance of. The --help epilog lists the rows
# by code; success, the empty tuple, matches no failure.
EXIT_CODES = (
    ((), 0, "success"),
    (DegenerateMarginalError, 4, "degenerate chi-squared marginal"),
    (RegionSizeCapError, 5, "region above the size cap"),
    (CubeFormatError, 3, "unreadable cube or label file format"),
    (ValueError, 2, "usage or validation error"),
    (OSError, 6, "file system error"),
    (Exception, 1, "unexpected failure"),
)

MAX_GRID_VALUES = 10_000


def _pipeline(args: argparse.Namespace, algo: str,
              value: float | None) -> tuple[Pipeline, Path]:
    """Check lambda and the pass's value, load the cube, build the pipeline, make the out dir.

    A flat run has no value and no seed order. The out dir is made after the
    read, so a malformed input writes nothing, and before any seed ordering.
    """
    _check_nonneg("lambda", args.lam)
    if value is not None:
        _check_nonneg(algo, value)
    order = SeedOrder(args.seed_order) if args.seed_order else None
    pipeline = prepare(load_cube(args.inputs), MetricKind(args.metric), args.lam,
                       Connectivity(args.connectivity), order)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return pipeline, outdir


def _report(args: argparse.Namespace, algorithm: str, param: float | None,
            labels: LabelMap, started: float) -> SegmentationReport:
    """The run's report of labels; its millis runs from started to now."""
    millis = (time.perf_counter() - started) * 1000.0
    return SegmentationReport(
        labels, algorithm=algorithm, metric=args.metric, lam=args.lam, param=param,
        connectivity=args.connectivity, seed_order=args.seed_order, millis=millis)


def _cmd_segment(args: argparse.Namespace) -> None:
    """Run the pass named by args.command and write its labels and report.

    The report's millis covers the whole run up to the labels: load, metric
    build, edge weights, flat zones, seed ordering and the pass.
    """
    started = time.perf_counter()
    pipeline, outdir = _pipeline(args, args.command, args.param)
    labels = pipeline.flat if args.param is None else pipeline.refine(args.command, args.param)
    # the metric, neighbour table and ordering are not needed for writing, and
    # kept alive they would add their size to the run's peak memory
    del pipeline
    report = _report(args, args.command, args.param, labels, started)
    write_labels(labels, outdir / label_file(labels))
    write_report(report, outdir / "report.txt")
    append_sweep_row(report, outdir / "sweep.csv")
    print(f"regions: {labels.count}")


def parse_grid(text: str) -> list[float]:
    """Parse start:stop:step into its inclusive grid of at most MAX_GRID_VALUES."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid values must be finite numbers, got {text!r}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"grid stop {stop} is below start {start}")
    span = (stop - start) / step + 1e-9
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    if count > MAX_GRID_VALUES:
        raise ValueError(
            f"grid {text!r} has {count:.6g} values, above the cap of {MAX_GRID_VALUES}"
        )
    return [start + k * step for k in range(count)]


def _cmd_sweep(args: argparse.Namespace) -> None:
    """One row per grid value; each row's millis is that value's pass alone."""
    values = parse_grid(args.param_grid)
    pipeline, outdir = _pipeline(args, args.algo, values[0])
    for value in values:
        started = time.perf_counter()
        labels = pipeline.refine(args.algo, value)
        report = _report(args, args.algo, value, labels, started)
        append_sweep_row(report, outdir / "sweep.csv")
        print(f"{args.algo} {value:g}: regions={labels.count}")


def _cmd_synth(args: argparse.Namespace) -> None:
    cube = tooth_saw_cube(width=args.width, height=args.height, bands=args.bands,
                          step=args.step, teeth=args.teeth, constant_value=args.constant)
    write_cube(cube, args.out)
    print(f"wrote {args.out} ({cube.width}x{cube.height}x{cube.bands})")


def _cmd_stats(args: argparse.Namespace) -> None:
    labels = relabel_dense(read_label_values(args.labels_path))
    print(f"regions: {labels.count}")
    print("region_sizes: " + " ".join(map(str, labels.sizes.tolist())))


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; a failure exits with its EXIT_CODES code."""
    try:
        args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code, _ in EXIT_CODES if isinstance(exc, types))
    return 0


def _add_common(parser, *, seeds: bool) -> None:
    parser.add_argument("--input", dest="inputs", nargs="+", required=True,
                        metavar="FILE",
                        help="HSC1 cube, or one or more P5/P2 graymaps (one band each)")
    parser.add_argument("--metric", choices=sorted(kind.value for kind in MetricKind),
                        default="euclidean")
    parser.add_argument("--connectivity", type=int, choices=(4, 8), default=4)
    parser.add_argument("--outdir", default=".")
    parser.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="flat-zone threshold; 'inf' treats the image as one class")
    if seeds:
        parser.add_argument("--seed-order", dest="seed_order",
                            choices=sorted(order.value for order in SeedOrder),
                            default="median")
    else:
        parser.set_defaults(seed_order=None)


def build_parser() -> argparse.ArgumentParser:
    codes = sorted(EXIT_CODES, key=lambda row: row[1])
    parser = argparse.ArgumentParser(
        prog="hsseg",
        description="Top-down hyperspectral segmentation: flat zones plus "
                    "amplitude-bounded or geodesic refinement.",
        epilog="exit codes:\n" + "".join(f"  {code}  {meaning}\n" for _, code, meaning in codes),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic cube")
    p_synth.set_defaults(func=_cmd_synth)
    p_synth.add_argument("generator", choices=("tooth-saw",))
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--width", type=int, default=21)
    p_synth.add_argument("--height", type=int, default=21)
    p_synth.add_argument("--bands", type=int, default=4)
    p_synth.add_argument("--step", type=float, default=10.0)
    p_synth.add_argument("--teeth", type=int, default=3)
    p_synth.add_argument("--constant", type=float, default=100.0)

    p_flat = sub.add_parser("flat", help="lambda-flat zones")
    p_flat.set_defaults(func=_cmd_segment, param=None)
    _add_common(p_flat, seeds=False)

    p_eta = sub.add_parser("eta", help="eta-bounded regions inside flat zones")
    p_eta.set_defaults(func=_cmd_segment)
    _add_common(p_eta, seeds=True)
    p_eta.add_argument("--eta", dest="param", metavar="ETA", type=float, required=True)

    p_mu = sub.add_parser("mu", help="mu-geodesic balls inside flat zones")
    p_mu.set_defaults(func=_cmd_segment)
    _add_common(p_mu, seeds=True)
    p_mu.add_argument("--mu", dest="param", metavar="MU", type=float, required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid, appending CSV rows")
    p_sweep.set_defaults(func=_cmd_sweep)
    _add_common(p_sweep, seeds=True)
    p_sweep.add_argument("--algo", choices=("eta", "mu"), required=True)
    p_sweep.add_argument("--param", dest="param_grid", required=True,
                         metavar="START:STOP:STEP",
                         help="inclusive of STOP when exactly reached; "
                              f"at most {MAX_GRID_VALUES} values")

    p_stats = sub.add_parser("stats", help="recompute region counts from a label file")
    p_stats.set_defaults(func=_cmd_stats)
    p_stats.add_argument("labels_path", metavar="LABELS")

    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

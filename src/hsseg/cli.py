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
from dataclasses import dataclass
from pathlib import Path

from .errors import CubeFormatError, DegenerateMarginalError, RegionSizeCapError
from .eta_regions import EtaParams, eta_bounded_regions
from .flatzones import LambdaParams, lambda_flat_zones
from .grid import Connectivity, LabelMap, SpectralCube, region_sizes, relabel_dense
from .io import (HSC1_MAGIC, SegmentationReport, append_sweep_row, read_cube,
                 read_graymap_stack, read_label_values, write_cube,
                 write_labels, write_report)
from .metrics import MetricKind, build_edge_weights, build_metric
from .mu_balls import MuParams, mu_geodesic_balls
from .seeds import SeedOrder, order_classes
from .synth import ToothSawSpec, tooth_saw_cube

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_MARGINAL = 4
EXIT_REGION_CAP = 5
EXIT_IO = 6

MAX_GRID_VALUES = 10_000

_EXIT_CODES = """\
exit codes:
  0  success
  1  unexpected failure
  2  usage or validation error
  3  unreadable cube or label file format
  4  degenerate chi-squared marginal
  5  region above the size cap
  6  file system error
"""

_METRICS = {"euclidean": MetricKind.EUCLIDEAN, "chi2": MetricKind.CHI_SQUARED}
_ORDERS = {"median": SeedOrder.MEDIAN_FIRST, "antimedian": SeedOrder.ANTIMEDIAN_FIRST}


@dataclass
class RunConfig:
    """Parsed invocation; one field per CLI knob."""

    command: str
    inputs: tuple[str, ...] = ()
    metric: str = "euclidean"
    lam: float | None = None
    eta: float | None = None
    mu: float | None = None
    connectivity: int = 4
    seed_order: str = "median"
    outdir: str = "."
    out: str | None = None
    algo: str | None = None
    param_grid: str | None = None
    labels_path: str | None = None
    generator: str | None = None
    width: int = 21
    height: int = 21
    bands: int = 4
    step: float = 10.0
    teeth: int = 3
    constant: float = 100.0


def _check_nonneg(name: str, value: float | None) -> None:
    if value is not None and (math.isnan(value) or value < 0):
        raise ValueError(f"--{name} must be >= 0, got {value}")


def _load_cube(paths) -> SpectralCube:
    if not paths:
        raise ValueError("no input file given")
    if len(paths) > 1:
        return read_graymap_stack(paths)
    with open(paths[0], "rb") as fh:
        head = fh.read(4)
    if head[:4] == HSC1_MAGIC:
        return read_cube(paths[0])
    if head[:2] in (b"P5", b"P2"):
        return read_graymap_stack(paths)
    raise CubeFormatError(f"{paths[0]}: unrecognized input format {head!r}")


def _prepare(cfg: RunConfig):
    """Build what every pass of a run shares, once: flat zones and seed order.

    Returns the flat partition and refine(algo, value), which runs one eta
    or mu pass on the shared seed ordering; refine is None for flat runs.
    """
    cube = _load_cube(cfg.inputs)
    metric = build_metric(cube, _METRICS[cfg.metric])
    connectivity = Connectivity(cfg.connectivity)
    edge_weights = build_edge_weights(metric, connectivity)
    flat = lambda_flat_zones(cube, LambdaParams(metric, cfg.lam, connectivity),
                             edge_weights=edge_weights)
    if cfg.command == "flat":
        return flat, None
    order = _ORDERS[cfg.seed_order]
    ordering = order_classes(flat, metric, order)

    def refine(algo: str, value: float) -> LabelMap:
        if algo == "eta":
            return eta_bounded_regions(cube, metric, flat, EtaParams(value, order),
                                       connectivity, edge_weights=edge_weights,
                                       ordering=ordering)
        return mu_geodesic_balls(cube, metric, flat, MuParams(value, order),
                                 connectivity, edge_weights=edge_weights,
                                 ordering=ordering)

    return flat, refine


def _segment(cfg: RunConfig):
    """Run the pass named by cfg.command and return (labels, report).

    The report's millis covers the whole run up to the labels: load, metric
    build, edge weights, flat zones, seed ordering and the pass.
    """
    started = time.perf_counter()
    flat, refine = _prepare(cfg)
    if refine is None:
        labels, param, seed_order = flat, None, None
    else:
        param = cfg.eta if cfg.command == "eta" else cfg.mu
        labels, seed_order = refine(cfg.command, param), cfg.seed_order
    millis = (time.perf_counter() - started) * 1000.0
    report = SegmentationReport.from_labels(
        labels, algorithm=cfg.command, metric=cfg.metric, lam=cfg.lam, param=param,
        connectivity=cfg.connectivity, seed_order=seed_order, millis=millis)
    return labels, report


def _cmd_segment(cfg: RunConfig) -> int:
    labels, report = _segment(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    label_path = outdir / ("labels.pgm" if labels.count <= 65536 else "labels.hsc")
    fmt = write_labels(labels, label_path)
    extra = [] if fmt == "p5" else [f"labels_format: {fmt}"]
    write_report(report, outdir / "report.txt", extra=extra)
    append_sweep_row(report, outdir / "sweep.csv")
    print(f"regions: {report.regions}")
    return EXIT_OK


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


def _cmd_sweep(cfg: RunConfig) -> int:
    """One row per grid value; each row's millis is that value's pass alone."""
    values = parse_grid(cfg.param_grid)
    _, refine = _prepare(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "sweep.csv"
    for value in values:
        started = time.perf_counter()
        labels = refine(cfg.algo, value)
        millis = (time.perf_counter() - started) * 1000.0
        report = SegmentationReport.from_labels(
            labels, algorithm=cfg.algo, metric=cfg.metric, lam=cfg.lam, param=value,
            connectivity=cfg.connectivity, seed_order=cfg.seed_order, millis=millis)
        append_sweep_row(report, csv_path)
        print(f"{cfg.algo} {value:g}: regions={report.regions}")
    return EXIT_OK


def _cmd_synth(cfg: RunConfig) -> int:
    spec = ToothSawSpec(width=cfg.width, height=cfg.height, bands=cfg.bands,
                        step=cfg.step, teeth=cfg.teeth, constant_value=cfg.constant)
    cube = tooth_saw_cube(spec)
    write_cube(cube, cfg.out)
    print(f"wrote {cfg.out} ({cube.width}x{cube.height}x{cube.bands})")
    return EXIT_OK


def _cmd_stats(cfg: RunConfig) -> int:
    values = read_label_values(cfg.labels_path)
    labels = relabel_dense(values)
    print(f"regions: {labels.count}")
    print("region_sizes: " + " ".join(map(str, region_sizes(labels).tolist())))
    return EXIT_OK


def run(config: RunConfig) -> int:
    """Execute one parsed invocation, mapping errors to distinct exit codes."""
    try:
        _check_nonneg("lambda", config.lam)
        _check_nonneg("eta", config.eta)
        _check_nonneg("mu", config.mu)
        if config.command == "synth":
            return _cmd_synth(config)
        if config.command in ("flat", "eta", "mu"):
            return _cmd_segment(config)
        if config.command == "sweep":
            return _cmd_sweep(config)
        if config.command == "stats":
            return _cmd_stats(config)
        raise ValueError(f"unknown command {config.command!r}")
    except DegenerateMarginalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MARGINAL
    except RegionSizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGION_CAP
    except CubeFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - last resort diagnostics
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


def _add_common(parser, *, seeds: bool) -> None:
    parser.add_argument("--input", dest="inputs", nargs="+", required=True,
                        metavar="FILE",
                        help="HSC1 cube, or one or more P5/P2 graymaps (one band each)")
    parser.add_argument("--metric", choices=sorted(_METRICS), default="euclidean")
    parser.add_argument("--connectivity", type=int, choices=(4, 8), default=4)
    parser.add_argument("--outdir", default=".")
    parser.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="flat-zone threshold; 'inf' treats the image as one class")
    if seeds:
        parser.add_argument("--seed-order", dest="seed_order",
                            choices=sorted(_ORDERS), default="median")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsseg",
        description="Top-down hyperspectral segmentation: flat zones plus "
                    "amplitude-bounded or geodesic refinement.",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic cube")
    p_synth.add_argument("generator", choices=("tooth-saw",))
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--width", type=int, default=21)
    p_synth.add_argument("--height", type=int, default=21)
    p_synth.add_argument("--bands", type=int, default=4)
    p_synth.add_argument("--step", type=float, default=10.0)
    p_synth.add_argument("--teeth", type=int, default=3)
    p_synth.add_argument("--constant", type=float, default=100.0)

    p_flat = sub.add_parser("flat", help="lambda-flat zones")
    _add_common(p_flat, seeds=False)

    p_eta = sub.add_parser("eta", help="eta-bounded regions inside flat zones")
    _add_common(p_eta, seeds=True)
    p_eta.add_argument("--eta", type=float, required=True)

    p_mu = sub.add_parser("mu", help="mu-geodesic balls inside flat zones")
    _add_common(p_mu, seeds=True)
    p_mu.add_argument("--mu", type=float, required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid, appending CSV rows")
    _add_common(p_sweep, seeds=True)
    p_sweep.add_argument("--algo", choices=("eta", "mu"), required=True)
    p_sweep.add_argument("--param", dest="param_grid", required=True,
                         metavar="START:STOP:STEP",
                         help="inclusive of STOP when exactly reached; "
                              f"at most {MAX_GRID_VALUES} values")

    p_stats = sub.add_parser("stats", help="recompute region counts from a label file")
    p_stats.add_argument("labels_path", metavar="LABELS")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fields = {f: getattr(args, f) for f in vars(args) if f != "command"}
    if "inputs" in fields and fields["inputs"] is not None:
        fields["inputs"] = tuple(fields["inputs"])
    config = RunConfig(command=args.command, **fields)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

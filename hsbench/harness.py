"""Rounds, output checks and metrics of one benchmark invocation (see run.py)."""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
from tracer import MIB

SETUP_REPEATS = 9
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "io.read_s": "s", "io.read_mb": "MiB", "io.write_s": "s", "io.write_mb": "MiB",
    "metrics.build_s": "s", "metrics.edges_s": "s",
    "flatzones.s": "s", "flatzones.classes": "count", "flatzones.max_class_px": "count",
    "seeds.s": "s", "seeds.calls": "count", "seeds.pairs": "count",
    "seeds.pairs_per_s": "1/s", "seeds.computed_mb": "MiB",
    "eta_regions.self_s": "s", "eta_regions.regions": "count",
    "mu_balls.self_s": "s", "mu_balls.regions": "count",
    "cli.self_s": "s", "cli.jobs": "count", "trace.overhead_s": "s",
}
# Timed functions whose self times make up each per-layer time.
LAYER_TIMES = {
    "io.read_s": ("io.read_cube", "io.read_graymap_stack"),
    "io.write_s": ("io.write_labels", "io.write_report", "io.append_sweep_row"),
    "metrics.build_s": ("metrics.build_metric",),
    "metrics.edges_s": ("metrics.build_edge_weights",),
    "flatzones.s": ("flatzones.lambda_flat_zones",),
    "seeds.s": ("seeds.class_orderings",),
    "eta_regions.self_s": ("eta_regions.eta_bounded_regions",),
    "mu_balls.self_s": ("mu_balls.mu_geodesic_balls",),
}
PASSES = {"eta": "eta_regions.eta_bounded_regions", "mu": "mu_balls.mu_geodesic_balls"}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class JobRun:
    job: inputs.Job
    outdir: Path
    returncode: int
    wall_s: float
    rss_mib: float
    trace: dict | None = None
    digest: str | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.errors)


def environment(seed: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


class Bench:
    """One workload: its inputs, its job processes and the checks of their outputs."""

    def __init__(self, launcher, bench_dir: Path, name: str, seed: int, scratch: Path):
        self.launcher, self.bench_dir = launcher, bench_dir
        self.name, self.seed, self.scratch = name, seed, scratch
        self.started = perf_counter()
        self.workload = inputs.WORKLOADS[name]
        self.data = None
        self.jobs: tuple[inputs.Job, ...] = ()
        self.reference: dict[str, str] = {}
        self._expected: dict = {}

    def hsseg(self, args, cwd: Path, log: Path, spans: Path | None = None):
        """Run one `hsseg` process, under the tracer when `spans` names its output."""
        if spans is None:
            argv = [sys.executable, "-m", "hsseg", *args]
        else:
            argv = [sys.executable, str(self.bench_dir / "tracer.py"), str(spans), *args]
        left = RUN_DEADLINE_S - (perf_counter() - self.started)
        return self.launcher.run(argv, cwd, log, min(JOB_TIMEOUT_S, max(1.0, left)))

    def setup(self) -> list[float]:
        """Generate, write and warm up SETUP_REPEATS times; the seconds of each.

        The job list is derived afterwards, once, and is not timed.
        """
        times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            self.data, files = self.workload.cube(self.seed)
            indir = self.scratch / "in"
            shutil.rmtree(indir, ignore_errors=True)
            inputs.write_inputs(files, indir)
            warm = self.scratch / "warm"
            warm.mkdir(parents=True, exist_ok=True)
            for args in (["synth", "tooth-saw", "--out", "saw.hsc"],
                         ["flat", "--input", "saw.hsc", "--lambda", "9.9", "--outdir", "."]):
                code, _, _ = self.hsseg(args, warm, warm / "log.txt")
                if code != 0:
                    raise SetupError(f"warm-up `hsseg {' '.join(args)}` exited {code}: "
                                     + (warm / "log.txt").read_text(errors="replace")[-400:])
            times.append(perf_counter() - start)
        self.jobs = self.workload.jobs(self.data)
        return times

    def run_round(self, index: int, traced: bool) -> tuple[float, list[JobRun]]:
        """Run every job once; wall time from the first start to the last exit."""
        outdirs = [self.scratch / f"r{index}" / job.name for job in self.jobs]
        for outdir in outdirs:
            outdir.mkdir(parents=True)
        runs = []
        start = perf_counter()
        for job, outdir in zip(self.jobs, outdirs):
            args = [str(outdir) if a == "{out}" else a for a in job.args]
            spans = outdir / "trace.json" if traced else None
            code, wall, rss = self.hsseg(args, self.scratch / "in", outdir / "log.txt", spans)
            runs.append(JobRun(job, outdir, code, wall, rss))
        wall = perf_counter() - start
        for run in runs:
            spans = run.outdir / "trace.json"
            if traced and spans.is_file():
                run.trace = json.loads(spans.read_text())
        return wall, runs

    def check(self, run: JobRun) -> None:
        """Decode the job's output; check it fully once, later rounds by digest."""
        if run.returncode != 0:
            run.errors.append(f"exit code {run.returncode}: "
                              + (run.outdir / "log.txt").read_text(errors="replace")[-400:])
            return
        job = run.job
        try:
            if job.command == "sweep":
                rows = checks.sweep_rows((run.outdir / "sweep.csv").read_bytes())
                run.digest = checks.sweep_digest(rows)
            else:
                label_file = next(run.outdir.glob("labels.*"))
                labels = checks.read_labels(label_file.read_bytes())
                run.digest = checks.label_digest(labels)
        except (OSError, StopIteration, ValueError, KeyError, struct.error) as exc:
            run.errors.append(f"unreadable output: {exc!r}")
            return
        if job.name in self.reference:
            if run.digest != self.reference[job.name]:
                run.errors.append("output differs from this run's first round")
            return
        self.reference[job.name] = run.digest
        if job.command == "sweep":
            run.errors += self.check_sweep(job, rows)
        else:
            run.errors += self.check_labels(job, labels, run.outdir / "log.txt")

    def expected(self, key, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def coords(self, metric: str):
        return self.expected(("coords", metric),
                             lambda: checks.coordinates(self.data, metric))

    def flat(self, metric: str, lam: float, connectivity: int):
        return self.expected(("flat", metric, lam, connectivity),
                             lambda: checks.flat_zones(self.coords(metric), lam, connectivity))

    def check_labels(self, job: inputs.Job, labels, log: Path) -> list[str]:
        if labels.shape != self.data.shape[:2]:
            return [f"label map is {labels.shape}, cube is {self.data.shape[:2]}"]
        printed = log.read_text(errors="replace").split()
        count = int(labels.max()) + 1
        errors = [] if printed[-2:] == ["regions:", str(count)] else [
            f"printed {' '.join(printed[-2:])!r} for a map of {count} regions"]
        coords = self.coords(job.metric)
        flat = self.flat(job.metric, job.lam, job.connectivity)
        if job.command == "flat":
            return errors + checks.check_flat(labels, flat)
        errors += checks.check_partition(labels, flat, job.connectivity)
        if job.command == "eta":
            errors += checks.check_eta(labels, coords, job.param)
        else:
            errors += checks.check_mu(labels, coords, job.param, job.connectivity)
        if int(flat.max()) == 0:
            cumdist = self.expected(("cumdist", job.metric),
                                    lambda: checks.cumulative_distances(coords))
            errors += checks.check_first_seed(labels, cumdist, job.seed_order)
        return errors

    def check_sweep(self, job: inputs.Job, rows) -> list[str]:
        zero = int(self.flat(job.metric, 0.0, job.connectivity).max()) + 1
        classes = int(self.flat(job.metric, job.lam, job.connectivity).max()) + 1
        return checks.check_sweep(rows, job.grid, zero, classes)


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(runs: list[JobRun]) -> dict[str, float]:
    """Per-layer totals of one traced round."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    cli_self = 0.0
    for run in runs:
        t = run.trace
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k.endswith("max_class_px") else counts.get(k, 0) + v
        cli_self += run.wall_s - t["outer_s"]
    m = {name: sum(self_s.get(f, 0.0) for f in fns) for name, fns in LAYER_TIMES.items()}
    m["io.read_mb"] = counts.get("io.read_bytes", 0) / MIB
    m["io.write_mb"] = counts.get("io.write_bytes", 0) / MIB
    m["flatzones.classes"] = counts.get("flatzones.classes", 0)
    m["flatzones.max_class_px"] = counts.get("flatzones.max_class_px", 0)
    m["seeds.calls"] = calls.get("seeds.class_orderings", 0)
    m["seeds.pairs"] = counts.get("seeds.pairs", 0)
    m["seeds.pairs_per_s"] = m["seeds.pairs"] / m["seeds.s"] if m["seeds.s"] > 0 else 0.0
    m["seeds.computed_mb"] = counts.get("seeds.computed_bytes", 0) / MIB
    m["eta_regions.regions"] = counts.get("eta_regions.regions", 0)
    m["mu_balls.regions"] = counts.get("mu_balls.regions", 0)
    m["cli.self_s"] = cli_self
    m["cli.jobs"] = len(runs)
    return m


def required_calls(job: inputs.Job) -> dict[tuple[str, ...], int]:
    """Fewest calls, summed over each group of timed functions, that the job must make.

    Work the CLI routes around a timed function would otherwise move
    unseen into `cli.self_s` or into a caller's self time.
    """
    values = len(job.grid) or 1
    need = {("io.read_cube", "io.read_graymap_stack"): 1,
            ("metrics.build_metric",): 1, ("metrics.build_edge_weights",): 1,
            ("flatzones.lambda_flat_zones",): 1}
    if job.command == "sweep":
        need[("io.append_sweep_row",)] = values
    else:
        need[("io.write_labels",)] = 1
    if job.algo in PASSES:
        need[("seeds.class_orderings",)] = 1
        need[(PASSES[job.algo],)] = values
    return need


def trace_errors(run: JobRun) -> list[str]:
    """The job reached every layer it must, and its layer self times plus
    its CLI remainder make up its wall time."""
    t = run.trace
    if t is None:
        return ["traced job wrote no trace"]
    errors = [f"{' or '.join(fns)} called {made} times, at least {least} expected"
              for fns, least in required_calls(run.job).items()
              if (made := sum(t["calls"].get(f, 0) for f in fns)) < least]
    total = sum(t["self_s"].values())
    if abs(total - t["outer_s"]) > 1e-6 * max(1.0, t["outer_s"]):
        errors.append(f"layer self times sum to {total:.9f} s, outermost spans to {t['outer_s']:.9f} s")
    if t["outer_s"] > run.wall_s:
        errors.append(f"spans cover {t['outer_s']:.6f} s of a {run.wall_s:.6f} s job")
    return errors


def run_workload(bench: Bench, seconds: float, trace: bool) -> dict:
    """Set up, then run whole rounds until the next would overrun `seconds`."""
    setup_times = bench.setup()
    print(f"workload {bench.name}: {bench.workload.make_up}; "
        f"{len(bench.jobs)} jobs per round")
    walls = {False: [], True: []}
    job_walls: dict[str, list[float]] = {}
    layer_rounds = []
    peak_rss = 0.0
    attempted = failed = 0
    correct = True
    measured = 0.0
    index = 0
    while True:
        traced = trace and index % 2 == 1
        wall, runs = bench.run_round(index, traced)
        measured += wall
        walls[traced].append(wall)
        for run in runs:
            attempted += 1
            job_walls.setdefault(run.job.name + ("+trace" if traced else ""), []).append(run.wall_s)
            bench.check(run)
            if traced and run.returncode == 0:
                run.errors += trace_errors(run)
            if run.failed:
                failed += 1
                correct = correct and run.returncode != 0
                print(f"FAILED job {run.job.name} round {index}: {'; '.join(run.errors)}")
            peak_rss = max(peak_rss, run.rss_mib)
            if index == 0:
                print(f"job {run.job.name} sha256 {run.digest} wall_s {run.wall_s:.4f}")
        if traced and not any(r.failed for r in runs):
            layer_rounds.append(layer_metrics(runs))
        shutil.rmtree(bench.scratch / f"r{index}", ignore_errors=True)
        index += 1
        need_trace = trace and not walls[True]
        elapsed = perf_counter() - bench.started
        if not need_trace and (measured + wall > seconds or elapsed + 3 * wall > RUN_DEADLINE_S):
            break
    print(f"rounds: {len(walls[False])} untraced, {len(walls[True])} traced; "
        f"measured {measured:.3f} s")
    if trace:
        metrics = {k: median([r[k] for r in layer_rounds]) for k in PER_LAYER_UNITS
                   if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])
        correct = correct and bool(layer_rounds)
        units = PER_LAYER_UNITS
    else:
        metrics = {"setup_s": median(setup_times), "wall_s": median(walls[False]),
                   "peak_rss_mb": peak_rss}
        units = END_TO_END_UNITS
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "round_walls": {"untraced": walls[False], "traced": walls[True]},
            "job_walls": job_walls, "setup_walls": setup_times,
            "elapsed_s": perf_counter() - bench.started,
            "digests": dict(bench.reference)}


def main(args, launcher, bench_dir: Path) -> int:
    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(inputs.WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(inputs.WORKLOADS)} or all", file=sys.stderr)
        return 2
    modes = (False, True) if args.workload == "all" and not args.hashes else (bool(args.trace),)
    out = bench_dir / "out"
    results = {}
    try:
        for name in names:
            for traced in modes:
                scratch = out / f"work-{os.getpid()}"
                shutil.rmtree(scratch, ignore_errors=True)
                try:
                    bench = Bench(launcher, bench_dir, name, args.seed, scratch)
                    results[(name, traced)] = run_workload(bench, args.seconds, traced)
                finally:
                    shutil.rmtree(scratch, ignore_errors=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for (name, traced), res in results.items():
        record = {"env": env, "workload": name, "trace": traced, **res}
        (out / f"{name}-seed{args.seed}-trace{int(traced)}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        for metric, mv in res["metrics"].items():
            print(f"{name:<13} {metric:<24} {mv['value']:>18.6f} {mv['unit']}")
    if args.hashes:
        digests = {name: res["digests"] for (name, _), res in results.items()}
        Path(args.hashes).write_text(json.dumps({"seed": args.seed, "digests": digests},
                                                indent=1, sort_keys=True) + "\n")

    final = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values())}
    if len(results) == 1:
        final["metrics"] = next(iter(results.values()))["metrics"]
    else:
        final["metrics"] = {f"{name}:{k}": v for (name, _), r in results.items()
                            for k, v in r["metrics"].items()}
    print(json.dumps(final))
    return 0

"""Seeded input cubes and the job list of each workload.

Everything here is computed by the benchmark itself with numpy; the only
thing the program under test ever sees is the files written by
`write_inputs`. The same seed gives the same bytes on every machine that
has the same numpy bit generator (PCG64).
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


@dataclass(frozen=True)
class Job:
    """One `hsseg` invocation: its name, command and CLI arguments."""

    name: str
    command: str  # flat | eta | mu | sweep
    algo: str     # the pass it runs: flat | eta | mu
    args: tuple[str, ...]
    metric: str = "euclidean"
    lam: float = float("inf")
    connectivity: int = 4
    seed_order: str = "median"
    param: float | None = None           # eta or mu value
    grid: tuple[float, ...] = ()         # sweep values, in CLI order


@dataclass(frozen=True)
class Workload:
    """How a workload's cube is generated and which jobs run on it.

    `cube` maps a seed to the (height, width, bands) float64 data as the
    program reads it and the files holding it; it is timed in `setup_s`.
    `jobs` maps that data to the job list. Job arguments are not input
    files, so they are derived once per seed, outside `setup_s`.
    """

    cube: Callable[[int], tuple[np.ndarray, dict[str, bytes]]]
    jobs: Callable[[np.ndarray], tuple[Job, ...]]
    make_up: str                         # one-line description for reports


def smooth_field(rng: np.random.Generator, height: int, width: int, radius: int) -> np.ndarray:
    """White noise box-blurred twice (periodic), rescaled to [0, 1]."""
    f = rng.standard_normal((height, width))
    k = 2 * radius + 1
    for _ in range(2):
        for axis in (0, 1):
            pad = [(0, 0), (0, 0)]
            pad[axis] = (radius + 1, radius)
            c = np.cumsum(np.pad(f, pad, mode="wrap"), axis=axis)
            n = c.shape[axis]
            f = (np.take(c, np.arange(k, n), axis=axis)
                 - np.take(c, np.arange(0, n - k), axis=axis)) / k
    f = f - f.min()
    return f / f.max()


def mixture_levels(rng: np.random.Generator, side: int, bands: int) -> np.ndarray:
    """Integer spectra mixing three endmembers with abundances in steps of 1/8.

    Most pixels share their spectrum with many others, so flat zones at
    lambda 0 and ties in cumulative distance are common.
    """
    ends = rng.integers(30, 226, size=(3, bands)).astype(np.float64)
    a = np.floor(smooth_field(rng, side, side, side // 8) * 8) / 8
    b = np.floor(smooth_field(rng, side, side, side // 8) * 8) / 8
    spec = ends[0] + a[..., None] * (ends[1] - ends[0]) + b[..., None] * (ends[2] - ends[0])
    jitter = (rng.random((side, side, bands)) < 0.03) * rng.choice([-1.0, 1.0], size=(side, side, bands))
    return np.clip(np.rint(spec) + jitter, 1, 255)


# ---------------------------------------------------------------------------
# File formats, written from the published layouts, not with the program.

def hsc1_bytes(data: np.ndarray, dtype: str) -> bytes:
    """HSC1: magic, u32 width/height/bands, dtype byte (1 f32, 2 f64), payload."""
    h, w, b = data.shape
    code = {"<f4": 1, "<f8": 2}[dtype]
    return struct.pack("<4sIIIB", b"HSC1", w, h, b, code) + data.astype(dtype).tobytes()


def p5_bytes(band: np.ndarray) -> bytes:
    h, w = band.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + band.astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# Workloads

ONE_CLASS_SIDE, ONE_CLASS_BANDS = 64, 8
MANY_SIDE, MANY_BANDS, MANY_SIGMA, MANY_LAMBDA = 256, 8, 0.012, 0.03
SWEEP_SIDE, SWEEP_BANDS = 48, 8


def _seg(name, command, inputs, *, metric="euclidean", lam="inf",
         connectivity=4, seed_order="median", param=None) -> Job:
    """A flat, eta or mu job; "{out}" stands for the job's output directory."""
    args = [command, "--input", *inputs, "--metric", metric,
            "--connectivity", str(connectivity), "--lambda", lam, "--outdir", "{out}"]
    if command != "flat":
        args += ["--seed-order", seed_order, f"--{command}", f"{param:g}"]
    return Job(name, command, command, tuple(args), metric, float(lam), connectivity,
               seed_order if command != "flat" else "median", param)


ONE_CLASS_FILES = tuple(f"band{j}.pgm" for j in range(ONE_CLASS_BANDS))


def one_class_cube(seed: int):
    rng = np.random.default_rng([seed, 1])
    data = mixture_levels(rng, ONE_CLASS_SIDE, ONE_CLASS_BANDS)
    return data, {n: p5_bytes(data[:, :, j]) for j, n in enumerate(ONE_CLASS_FILES)}


def one_class_jobs(_data) -> tuple[Job, ...]:
    files = ONE_CLASS_FILES
    return (
        _seg("eta-euclid-median", "eta", files, param=24),
        _seg("mu-euclid-median", "mu", files, param=48),
        _seg("eta-chi2-antimedian", "eta", files, metric="chi2",
             seed_order="antimedian", param=0.06),
        _seg("mu-chi2-antimedian", "mu", files, metric="chi2",
             seed_order="antimedian", param=0.12),
    )


def many_classes_cube(seed: int):
    rng = np.random.default_rng([seed, 2])
    s, b = MANY_SIDE, MANY_BANDS
    base = np.stack([smooth_field(rng, s, s, 16) for _ in range(b)], axis=-1)
    raw = 1.0 + 0.2 * base + MANY_SIGMA * rng.standard_normal((s, s, b))
    data = raw.astype("<f4").astype(np.float64)
    return data, {"cube.hsc": hsc1_bytes(data, "<f4")}


def many_classes_jobs(_data) -> tuple[Job, ...]:
    lam = f"{MANY_LAMBDA:g}"
    return (
        _seg("flat-4", "flat", ("cube.hsc",), lam=lam),
        _seg("eta-4-median", "eta", ("cube.hsc",), lam=lam, param=0.02),
        _seg("mu-8-antimedian", "mu", ("cube.hsc",), lam=lam,
             connectivity=8, seed_order="antimedian", param=0.03),
    )


def sweep_cube(seed: int):
    rng = np.random.default_rng([seed, 3])
    data = mixture_levels(rng, SWEEP_SIDE, SWEEP_BANDS)
    return data, {"cube.hsc": hsc1_bytes(data, "<f8")}


def sweep_jobs(data: np.ndarray) -> tuple[Job, ...]:
    jobs = []
    for algo, top in zip(("eta", "mu"), collapse_values(data)):
        step = max(1, -(-top // 10))
        grid = tuple(float(k * step) for k in range(11))
        args = ("sweep", "--algo", algo, "--input", "cube.hsc", "--metric", "euclidean",
                "--connectivity", "4", "--lambda", "inf", "--seed-order", "median",
                "--param", f"0:{10 * step}:{step}", "--outdir", "{out}")
        jobs.append(Job(f"sweep-{algo}", "sweep", algo, args, grid=grid))
    return tuple(jobs)


def collapse_values(data: np.ndarray) -> tuple[int, int]:
    """Smallest integer eta and mu at which the median seed's region is the whole image.

    Every pixel whose cumulative distance is within REL_TOL of the minimum
    counts as a possible seed; the values cover the largest spectral and
    geodesic eccentricity among them.
    """
    coords = checks.coordinates(data, "euclidean")
    cumdist = checks.cumulative_distances(coords)
    seeds = np.flatnonzero(cumdist <= cumdist.min() * (1 + checks.REL_TOL))
    pts = coords.reshape(-1, coords.shape[2])
    spectral = np.sqrt(np.square(pts[None, :, :] - pts[seeds, None, :]).sum(axis=2))
    u, v, w = checks.edge_list(coords, 4)
    geodesic = checks.geodesics(len(pts), u, v, w, seeds)
    return int(np.ceil(spectral.max())), int(np.ceil(geodesic.max()))


WORKLOADS = {
    "one-class": Workload(
        one_class_cube, one_class_jobs,
        f"{ONE_CLASS_SIDE}x{ONE_CLASS_SIDE}x{ONE_CLASS_BANDS} 8-bit P5 stack, "
        "3-endmember mixture, abundances in steps of 1/8, 3% +-1 jitter; lambda inf"),
    "many-classes": Workload(
        many_classes_cube, many_classes_jobs,
        f"{MANY_SIDE}x{MANY_SIDE}x{MANY_BANDS} float32 HSC1, 1 + 0.2*smooth field "
        f"+ N(0, {MANY_SIGMA}) noise; lambda {MANY_LAMBDA:g}"),
    "sweep": Workload(
        sweep_cube, sweep_jobs,
        f"{SWEEP_SIDE}x{SWEEP_SIDE}x{SWEEP_BANDS} float64 HSC1 of integer levels, "
        "same mixture as one-class; lambda inf, 11 values 0..top"),
}


def write_inputs(files: dict[str, bytes], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (directory / name).write_bytes(content)

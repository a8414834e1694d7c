"""Label digests pinned against a committed table: the same labels, pixel for pixel.

The oracles check what the labels mean; this checks that they stay the
labels the table was written from. Each row is `hsbench/checks.label_digest`
of one label map, computed in-process from the cubes `hsbench/inputs.py`
generates:

- every job of the one-class and many-classes workloads and every value of
  both sweep jobs, for seeds 7 and 11, as the benchmark runs them;
- a matrix on one 16x16x3 mixture cube: both metrics, both connectivities
  and both seed orders, the flat zones at lambda 0, the median edge weight
  and inf, and inside each the eta and mu passes at 0, the median edge
  weight and inf. At lambda inf and at the median the classes span the
  batched keys, the collapsed keys, the lockstep and the walk.

The matrix runs twice: at the default gates, and with every class walked,
every class of two or more pixels collapsed and every block a single row or
class. Regenerate the table only when a change of labels is intended:

    PYTHONPATH=src python tests/test_golden_labels.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hsseg import Connectivity, MetricKind, SeedOrder, SpectralCube, prepare
from hsseg import growth, metrics, seeds

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("golden_labels.json")
if str(ROOT / "hsbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "hsbench"))
import checks  # noqa: E402
import inputs  # noqa: E402

METRICS = {"euclidean": MetricKind.EUCLIDEAN, "chi2": MetricKind.CHI_SQUARED}
ORDERS = {"median": SeedOrder.MEDIAN_FIRST, "antimedian": SeedOrder.ANTIMEDIAN_FIRST}
BENCH_SEEDS = (7, 11)


def bench_digests() -> dict[str, str]:
    """One row per label map the benchmark's jobs produce, sweeps value by value."""
    rows = {}
    for seed in BENCH_SEEDS:
        for workload, spec in inputs.WORKLOADS.items():
            data, _ = spec.cube(seed)
            for job in spec.jobs(data):
                pipeline = prepare(SpectralCube(data), METRICS[job.metric], job.lam,
                                   Connectivity(job.connectivity),
                                   None if job.algo == "flat" else ORDERS[job.seed_order])
                name = f"{workload}/seed{seed}/{job.name}"
                if job.algo == "flat":
                    rows[name] = checks.label_digest(pipeline.flat.labels)
                elif job.grid:
                    for value in job.grid:
                        labels = pipeline.refine(job.algo, value).labels
                        rows[f"{name}/{value:g}"] = checks.label_digest(labels)
                else:
                    labels = pipeline.refine(job.algo, job.param).labels
                    rows[name] = checks.label_digest(labels)
    return rows


def matrix_digests() -> dict[str, str]:
    """One row per flat-zone and refined label map of the generated matrix."""
    data = inputs.mixture_levels(np.random.default_rng([7, 9]), 16, 3)
    rows = {}
    for metric, kind in METRICS.items():
        for conn in (4, 8):
            _, _, weights = checks.edge_list(checks.coordinates(data, metric), conn)
            values = {"0": 0.0, "median": float(np.median(weights)), "inf": np.inf}
            for lam_name, lam in values.items():
                for order_name, order in ORDERS.items():
                    pipeline = prepare(SpectralCube(data), kind, lam, Connectivity(conn), order)
                    name = f"matrix/{metric}/{conn}/lambda-{lam_name}"
                    rows[name] = checks.label_digest(pipeline.flat.labels)
                    for algo in ("eta", "mu"):
                        for value_name, value in values.items():
                            labels = pipeline.refine(algo, value).labels
                            rows[f"{name}/{order_name}/{algo}-{value_name}"] = \
                                checks.label_digest(labels)
    return rows


def _table() -> dict[str, str]:
    return json.loads(TABLE.read_text())


def test_benchmark_jobs_keep_their_labels():
    table = _table()
    got = bench_digests()
    assert got == {k: v for k, v in table.items() if not k.startswith("matrix/")}


@pytest.mark.parametrize("gates", ["default", "extreme"])
def test_matrix_keeps_its_labels(gates, monkeypatch):
    if gates == "extreme":
        monkeypatch.setattr(growth, "_LOCKSTEP_MAX_PIXELS", 1)
        monkeypatch.setattr(seeds, "_COLLAPSE_MIN_PIXELS", 2)
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1)
    table = _table()
    assert matrix_digests() == {k: v for k, v in table.items() if k.startswith("matrix/")}


if __name__ == "__main__":
    TABLE.write_text(json.dumps({**bench_digests(), **matrix_digests()}, indent=1,
                                sort_keys=True) + "\n")

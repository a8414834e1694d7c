"""The benchmark's output checks reject corrupted label maps.

Run from the root of a checkout: python3 -m pytest hsbench -q

Each check first passes a correct map (built by hand or by the checks'
own reference computations), then rejects one deliberately corrupted
variant: a merged pair of regions, a region split across flat classes, a
disconnected region, a misplaced first seed, or a wrong sweep row. The
traced-run check likewise rejects a job that skipped a timed layer.
"""

from pathlib import Path

import numpy as np
import pytest

import checks
import harness
import inputs


def ramp(width=6, height=4):
    """One band rising by 1 per column: every horizontal edge weighs 1, vertical 0."""
    return np.tile(np.arange(width, dtype=float), (height, 1))[:, :, None]


def two_blocks():
    """Left three columns at 0, right three at 5: two flat zones at lambda 1."""
    data = np.zeros((4, 6, 1))
    data[:, 3:] = 5.0
    return data


def by_columns(groups, height=4):
    """Label map giving column x the label groups[x]."""
    return np.tile(np.asarray(groups), (height, 1))


def test_flat_check_rejects_merged_zones():
    coords = two_blocks()
    expected = checks.flat_zones(coords, 1.0, 4)
    assert checks.check_flat(by_columns([0, 0, 0, 1, 1, 1]), expected) == []
    assert checks.check_flat(by_columns([0] * 6), expected)
    # Right numbering matters too: zones must be numbered raster-first.
    assert checks.check_flat(by_columns([1, 1, 1, 0, 0, 0]), expected)


def test_partition_check_rejects_region_split_across_classes():
    flat = checks.flat_zones(two_blocks(), 1.0, 4)
    assert checks.check_partition(by_columns([0, 0, 1, 2, 2, 2]), flat, 4) == []
    errors = checks.check_partition(by_columns([0, 0, 1, 1, 2, 2]), flat, 4)
    assert any("flat-zone boundary" in e for e in errors)


def test_partition_check_rejects_disconnected_region():
    flat = np.zeros((4, 6), dtype=np.int64)
    assert checks.check_partition(by_columns([0, 0, 1, 1, 2, 2]), flat, 4) == []
    errors = checks.check_partition(by_columns([0, 1, 1, 0, 2, 2]), flat, 4)
    assert any("not 4-connected" in e for e in errors)


def test_partition_check_uses_the_run_connectivity():
    flat = np.zeros((2, 2), dtype=np.int64)
    diagonal = np.array([[0, 1], [1, 0]])
    assert checks.check_partition(diagonal, flat, 8) == []
    assert checks.check_partition(diagonal, flat, 4)


def test_partition_check_rejects_sparse_labels():
    flat = np.zeros((4, 6), dtype=np.int64)
    assert checks.check_partition(by_columns([0, 0, 0, 2, 2, 2]), flat, 4)


def test_eta_check_rejects_merged_regions():
    coords = ramp()
    assert checks.check_eta(by_columns([0, 0, 0, 1, 1, 1]), coords, 1.0) == []
    assert checks.check_eta(by_columns([0, 0, 0, 0, 0, 0]), coords, 1.0)


def test_eta_check_covers_large_regions():
    coords = ramp(width=40, height=2)
    assert checks.check_eta(np.zeros((2, 40), dtype=np.int64), coords, 19.5) == []
    assert checks.check_eta(np.zeros((2, 40), dtype=np.int64), coords, 19.4)


def test_mu_check_rejects_merged_regions():
    coords = ramp()
    assert checks.check_mu(by_columns([0, 0, 0, 1, 1, 1]), coords, 1.0, 4) == []
    assert checks.check_mu(by_columns([0, 0, 0, 0, 0, 0]), coords, 1.0, 4)


def test_mu_check_measures_paths_inside_the_region():
    # A U-shaped region: its two arms are spectrally equal, but the only
    # path between them inside the region runs through the costly bottom.
    data = np.zeros((3, 3, 1))
    data[:, 1] = 10.0
    data[2, 1] = 3.0
    labels = np.array([[0, 1, 0], [0, 2, 0], [0, 0, 0]])
    assert checks.check_mu(labels, data, 3.0, 4) == []
    assert checks.check_mu(labels, data, 2.9, 4)
    assert checks.check_eta(labels, data, 1.5) == []


@pytest.mark.parametrize("order, good, bad", [
    ("median", [1, 1, 0, 2, 2], [0, 0, 1, 1, 2]),
    ("antimedian", [0, 0, 1, 1, 2], [1, 1, 0, 0, 2]),
])
def test_first_seed_check_rejects_region_zero_without_the_extreme(order, good, bad):
    coords = ramp(width=5)
    cumdist = checks.cumulative_distances(coords)
    assert checks.check_first_seed(by_columns(good), cumdist, order) == []
    assert checks.check_first_seed(by_columns(bad), cumdist, order)


def test_sweep_check_rejects_wrong_end_counts_and_grids():
    grid = (0.0, 5.0, 10.0)
    assert checks.check_sweep([(0.0, 7), (5.0, 3), (10.0, 1)], grid, 7, 1) == []
    assert checks.check_sweep([(0.0, 6), (5.0, 3), (10.0, 1)], grid, 7, 1)
    assert checks.check_sweep([(0.0, 7), (5.0, 3), (10.0, 2)], grid, 7, 1)
    assert checks.check_sweep([(0.0, 7), (5.0, 3)], grid, 7, 1)


def test_label_files_decode_and_digest():
    labels = by_columns([0, 0, 1, 1, 2, 2])
    p5 = b"P5\n6 4\n65535\n" + labels.astype(">u2").tobytes()
    decoded = checks.read_labels(p5)
    assert np.array_equal(decoded, labels)
    assert checks.label_digest(decoded) == checks.label_digest(labels)
    assert checks.label_digest(by_columns([0, 0, 1, 1, 2, 2])[::-1]) == checks.label_digest(labels)
    assert checks.label_digest(by_columns([0, 1, 1, 1, 2, 2])) != checks.label_digest(labels)


def test_sweep_rows_read_param_and_regions():
    text = (b"algorithm,metric,lambda,param,connectivity,seed_order,regions,millis\n"
            b"eta,euclidean,inf,0,4,median,824,12.5\n"
            b"eta,euclidean,inf,16,4,median,40,11.0\n")
    rows = checks.sweep_rows(text)
    assert rows == [(0.0, 824), (16.0, 40)]
    assert checks.sweep_digest(rows) != checks.sweep_digest(rows[::-1])


def test_trace_check_rejects_a_job_that_skips_a_timed_layer():
    job = inputs.Job("sweep-mu", "sweep", "mu", (), grid=(0.0, 2.0, 4.0))
    calls = {"io.read_cube": 1, "metrics.build_metric": 1, "metrics.build_edge_weights": 1,
             "flatzones.lambda_flat_zones": 1, "seeds.class_orderings": 3,
             "mu_balls.mu_geodesic_balls": 3, "io.append_sweep_row": 3}

    def errors(calls):
        trace = {"self_s": {f: 0.1 for f in calls}, "calls": calls, "counts": {},
                 "outer_s": 0.1 * len(calls)}
        return harness.trace_errors(harness.JobRun(job, Path("."), 0, 2.0, 30.0, trace))

    assert errors(calls) == []
    assert errors({k: v for k, v in calls.items() if k != "flatzones.lambda_flat_zones"})
    assert errors({**calls, "mu_balls.mu_geodesic_balls": 2})
    assert errors({k: v for k, v in calls.items() if k != "seeds.class_orderings"})

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsseg import (Connectivity, EdgeWeights, EtaParams, LambdaParams, MetricKind,
                   MuParams, SpectralCube, build_edge_weights, build_metric,
                   eta_bounded_regions, lambda_flat_zones, mu_geodesic_balls,
                   relabel_dense)
from hsseg import flatzones

from conftest import cubes
from oracles import (flat_zone_class_sets, flat_zones_unionfind, is_refinement,
                     label_class_sets)


def test_tooth_saw_zone_counts(tooth_setup):
    cube, metric = tooth_setup
    assert lambda_flat_zones(cube, LambdaParams(metric, 9.9)).count == 21
    assert lambda_flat_zones(cube, LambdaParams(metric, 10.0)).count == 1


def test_lambda_above_max_edge_gives_one_zone():
    rng = np.random.default_rng(7)
    cube = SpectralCube(rng.uniform(0, 1, size=(5, 6, 3)))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    ew = build_edge_weights(metric, Connectivity.FOUR)
    lam = ew.weights[ew.neighbors >= 0].max()
    fz = lambda_flat_zones(cube, LambdaParams(metric, float(lam)))
    assert fz.count == 1


def test_lambda_zero_recovers_classical_flat_zones():
    # piecewise-constant cube: classes are the maximal constant blocks
    data = np.zeros((4, 6, 2))
    data[:, 3:, 0] = 1.0
    data[2:, :, 1] = 5.0
    cube = SpectralCube(data)
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    fz = lambda_flat_zones(cube, LambdaParams(metric, 0.0))
    assert fz.count == 4
    expected = np.array([
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1, 1],
        [2, 2, 2, 3, 3, 3],
        [2, 2, 2, 3, 3, 3],
    ])
    assert np.array_equal(fz.labels, expected)


@given(cubes(max_side=6), st.floats(0.0, 1.5), st.sampled_from(list(Connectivity)))
@settings(max_examples=100, deadline=None)
def test_matches_unionfind_oracle(cube, lam, conn):
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    got = lambda_flat_zones(cube, LambdaParams(metric, lam, conn))
    expected = flat_zones_unionfind(cube, MetricKind.EUCLIDEAN, lam, conn)
    assert np.array_equal(got.labels, expected.labels)


@given(cubes(max_side=6))
@settings(max_examples=50, deadline=None)
def test_monotone_refinement_in_lambda(cube):
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    grid = [0.0, 0.2, 0.5, 0.9, 1.5]
    maps = [lambda_flat_zones(cube, LambdaParams(metric, lam)) for lam in grid]
    for finer, coarser in zip(maps, maps[1:]):
        assert is_refinement(finer, coarser)


@given(cubes(max_side=5), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_partition_independent_of_scan_order(cube, lam):
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    got = lambda_flat_zones(cube, LambdaParams(metric, lam))
    reversed_scan = flat_zone_class_sets(cube, MetricKind.EUCLIDEAN, lam)
    assert label_class_sets(got) == reversed_scan


def test_labels_are_raster_first_appearance(tooth_setup):
    cube, metric = tooth_setup
    fz = lambda_flat_zones(cube, LambdaParams(metric, 9.9))
    assert np.array_equal(relabel_dense(fz.labels).labels, fz.labels)
    assert fz.labels[0, 0] == 0


def test_params_validation(tooth_setup):
    cube, metric = tooth_setup
    with pytest.raises(ValueError):
        LambdaParams(metric, -1.0)
    with pytest.raises(ValueError):
        LambdaParams(metric, float("nan"))
    # infinite lambda collapses everything into one class
    assert lambda_flat_zones(cube, LambdaParams(metric, float("inf"))).count == 1


def test_metric_cube_binding_checked(tooth_setup):
    cube, metric = tooth_setup
    other = SpectralCube(np.zeros((2, 2, 1)))
    with pytest.raises(ValueError):
        lambda_flat_zones(other, LambdaParams(metric, 1.0))


def test_shared_edge_weights_must_match_connectivity(tooth_setup):
    cube, metric = tooth_setup
    ew = build_edge_weights(metric, Connectivity.EIGHT)
    with pytest.raises(ValueError):
        lambda_flat_zones(cube, LambdaParams(metric, 1.0), edge_weights=ew)
    # a table of another grid
    small = build_metric(SpectralCube(np.ones((2, 2, 1))), MetricKind.EUCLIDEAN)
    with pytest.raises(ValueError, match="do not match the connectivity or the grid"):
        lambda_flat_zones(cube, LambdaParams(metric, 1.0), edge_weights=build_edge_weights(small))


def spiral_path(n):
    """(x, y) pixels of a square spiral on an n x n grid, arms one pixel apart."""
    x = y = 0
    path = [(0, 0)]
    lengths = [n - 1] + [m for m in range(n - 1, 1, -2) for _ in (0, 1)]
    for k, length in enumerate(lengths):
        dx, dy = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]
        for _ in range(length):
            x, y = x + dx, y + dy
            path.append((x, y))
    return path


def test_spiral_path_takes_few_hooking_rounds(monkeypatch):
    # a 1-pixel-wide spiral is one zone whose ends are far apart along the
    # path; every off-path pixel is a singleton (steps >= 2 > lambda)
    n = 256
    data = 2.0 * np.arange(1, n * n + 1).reshape(n, n)
    path = spiral_path(n)
    for x, y in path:
        data[y, x] = 0.0
    cube = SpectralCube(data[:, :, None])
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    rounds = []
    hook = flatzones._hook
    monkeypatch.setattr(flatzones, "_hook", lambda *a: rounds.append(1) or hook(*a))
    for conn in Connectivity:
        rounds.clear()
        got = lambda_flat_zones(cube, LambdaParams(metric, 1.0, conn))
        expected = flat_zones_unionfind(cube, MetricKind.EUCLIDEAN, 1.0, conn)
        assert np.array_equal(got.labels, expected.labels)
        assert got.count == n * n - len(path) + 1
        assert len(rounds) <= 2 * math.ceil(math.log2(n * n))


@pytest.mark.parametrize("shape", [(1, 6), (6, 1)])
@pytest.mark.parametrize("conn", list(Connectivity))
def test_off_grid_entries_join_nothing(shape, conn):
    # numpy reads index -1 as the last pixel. The first and last pixels share
    # a spectrum and every other step is 10, above each threshold below.
    values = [0.0, 10.0, 20.0, 30.0, 40.0, 0.0]
    cube = SpectralCube(np.array(values).reshape(*shape, 1))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    ew = build_edge_weights(metric, conn)
    one_class = lambda_flat_zones(cube, LambdaParams(metric, math.inf, conn), edge_weights=ew)
    passes = [
        lambda_flat_zones(cube, LambdaParams(metric, 5.0, conn), edge_weights=ew),
        eta_bounded_regions(cube, metric, one_class, EtaParams(5.0), conn, edge_weights=ew),
        mu_geodesic_balls(cube, metric, one_class, MuParams(5.0), conn, edge_weights=ew),
    ]
    for labels in passes:
        assert labels.count == len(values)


def test_one_way_entry_raises_instead_of_hanging():
    # pixel 0 lists pixel 1 as its east neighbour, pixel 1 lists nobody: the
    # entry joins two roots, and hooking never moves the smaller one
    cube = SpectralCube(np.zeros((1, 2, 1)))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    neighbors = np.array([[-1, -1, -1, 1], [-1, -1, -1, -1]], dtype=np.int32)
    table = EdgeWeights(Connectivity.FOUR, neighbors, np.where(neighbors >= 0, 0.0, np.inf))
    with pytest.raises(ValueError, match="entry 0 -> 1 is one-way"):
        lambda_flat_zones(cube, LambdaParams(metric, 1.0), edge_weights=table)


def test_built_edge_weights_are_read_only():
    metric = build_metric(SpectralCube(np.zeros((2, 2, 1))), MetricKind.EUCLIDEAN)
    table = build_edge_weights(metric)
    with pytest.raises(ValueError, match="read-only"):
        table.neighbors[0, 3] = 0
    with pytest.raises(ValueError, match="read-only"):
        table.weights[0, 3] = np.inf

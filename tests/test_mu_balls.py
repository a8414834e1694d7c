import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsseg import (Connectivity, LabelMap, MetricKind, Pipeline, SeedOrder, SpectralCube,
                   build_edge_weights, build_metric, prepare)
from hsseg import growth, mu_balls

from conftest import cubes, distance_row, mu_traversals
from oracles import (PixelIndex, bellman_ford, classes_are_connected,
                     is_refinement, mu_balls_bruteforce)


def chain_cube():
    # 1-D chain of 5 pixels with consecutive spectral steps of 10
    return SpectralCube(np.array([[[0.0], [10.0], [20.0], [30.0], [40.0]]]))


def dijkstra_ball(metric, domain, seed, mu, connectivity=Connectivity.FOUR):
    """The mu pass's `region` on a domain of (x, y) pixels: the set of its members."""
    w = metric.width
    owner = np.full(metric.pixel_count + 1, -1, dtype=np.int32)  # the domain is class 0
    for x, y in domain:
        owner[y * w + x] = 0
    _, region = mu_traversals(build_edge_weights(metric, connectivity), mu)
    return {PixelIndex(i % w, i // w) for i in region(seed[1] * w + seed[0], owner)}


def test_chain_prefix_ball():
    cube = chain_cube()
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    domain = [(x, 0) for x in range(5)]
    ball = dijkstra_ball(m, domain, (0, 0), 25.0)
    assert ball == {PixelIndex(0, 0), PixelIndex(1, 0), PixelIndex(2, 0)}


def test_zero_radius_keeps_zero_cost_plateau():
    cube = SpectralCube(np.array([[[5.0], [5.0]], [[7.0], [9.0]]]))
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    domain = [(0, 0), (1, 0), (0, 1), (1, 1)]
    ball = dijkstra_ball(m, domain, (0, 0), 0.0)
    assert ball == {PixelIndex(0, 0), PixelIndex(1, 0)}


def test_ball_respects_domain_restriction():
    cube = chain_cube()
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    # removing the middle pixel cuts the chain
    domain = [(0, 0), (1, 0), (3, 0), (4, 0)]
    ball = dijkstra_ball(m, domain, (0, 0), 100.0)
    assert ball == {PixelIndex(0, 0), PixelIndex(1, 0)}
    # a pixel of another class cuts it the same way, and a seed of that
    # class searches only its own
    owner = np.array([0, 0, 1, 0, 0, -1], dtype=np.int32)
    _, region = mu_traversals(build_edge_weights(m), 100.0)
    assert sorted(region(0, owner)) == [0, 1]
    assert region(2, owner) == [2]


@given(cubes(max_side=8), st.floats(0.0, 2.5), st.sampled_from(list(Connectivity)),
       st.data())
@settings(max_examples=60, deadline=None)
def test_distances_match_bellman_ford(cube, mu, conn, data):
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    pix = [PixelIndex(x, y) for y in range(cube.height) for x in range(cube.width)]
    k = data.draw(st.integers(1, len(pix)))
    domain = data.draw(st.permutations(pix))[:k]
    seed = data.draw(st.sampled_from(domain))
    full = bellman_ford(cube, MetricKind.EUCLIDEAN, domain, seed, conn)
    assert dijkstra_ball(m, domain, seed, mu, conn) == {p for p, d in full.items() if d <= mu}


@given(cubes(max_side=5), st.floats(0.0, 1.0), st.floats(0.0, 1.5))
@settings(max_examples=40, deadline=None)
def test_ball_nesting(cube, mu_small, extra):
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    pix = [PixelIndex(x, y) for y in range(cube.height) for x in range(cube.width)]
    small = dijkstra_ball(m, pix, pix[0], mu_small)
    large = dijkstra_ball(m, pix, pix[0], mu_small + extra)
    assert small <= large


def _pipeline(cube, lam, conn=Connectivity.FOUR, order=SeedOrder.MEDIAN_FIRST):
    return prepare(cube, MetricKind.EUCLIDEAN, lam, conn, order)


@pytest.mark.parametrize("mu", [0.0, 20.0, 40.0, 100.0])
def test_tooth_saw_matches_oracle(tooth_setup, mu):
    cube, _ = tooth_setup
    pipeline = _pipeline(cube, 10.0)
    got = pipeline.refine("mu", mu)
    expected, _ = mu_balls_bruteforce(cube, MetricKind.EUCLIDEAN, pipeline.flat, mu)
    assert np.array_equal(got.labels, expected.labels)


def test_tooth_saw_profile_peak_behavior(tooth_setup):
    # on the row profile, a ball from the valley seed stops where the
    # cumulative climb exceeds mu, not at the first peak
    cube, metric = tooth_setup
    row = [(x, 0) for x in range(21)]
    ball20 = dijkstra_ball(metric, row, (3, 0), 20.0)
    ball60 = dijkstra_ball(metric, row, (3, 0), 60.0)
    assert {p.x for p in ball20} == {1, 2, 3, 4, 5}
    assert {p.x for p in ball60} == set(range(10))


@given(cubes(max_side=6), st.floats(0.0, 1.2), st.floats(0.0, 2.0),
       st.sampled_from(list(Connectivity)), st.booleans())
@settings(max_examples=60, deadline=None)
def test_matches_bruteforce_oracle(cube, lam, mu, conn, antimedian):
    order = SeedOrder.ANTIMEDIAN_FIRST if antimedian else SeedOrder.MEDIAN_FIRST
    pipeline = _pipeline(cube, lam, conn, order)
    metric, flat = pipeline.metric, pipeline.flat
    got = pipeline.refine("mu", mu)
    expected, balls = mu_balls_bruteforce(cube, MetricKind.EUCLIDEAN, flat, mu,
                                          antimedian, conn)
    assert np.array_equal(got.labels, expected.labels)
    assert is_refinement(got, flat)
    assert classes_are_connected(got, conn)
    pts = np.arange(metric.pixel_count)
    for seed, ball in balls:
        direct = distance_row(metric, seed.y * cube.width + seed.x, pts)
        for p, d in ball.items():
            assert direct[p.y * cube.width + p.x] <= d + 1e-12 and d <= mu


def test_mu_above_total_edge_weight_reproduces_flat_zones(tooth_setup):
    pipeline = _pipeline(tooth_setup[0], 10.0)
    out = pipeline.refine("mu", pipeline.edge_weights.total_weight())
    assert np.array_equal(out.labels, pipeline.flat.labels)


def test_deterministic(tooth_setup):
    pipeline = _pipeline(tooth_setup[0], 10.0)
    a = pipeline.refine("mu", 30.0)
    b = pipeline.refine("mu", 30.0)
    assert np.array_equal(a.labels, b.labels)


def test_sweep_counts_regression(tooth_setup):
    # frozen from oracle-verified runs on the default saw; the median seed
    # sits 17 columns from the far edge, so radius 100 cannot reach one
    # region and the curve bottoms out at 2
    pipeline = _pipeline(tooth_setup[0], 10.0)
    counts = [pipeline.refine("mu", float(v)).count for v in range(0, 101, 10)]
    assert counts == [21, 10, 7, 4, 3, 3, 3, 3, 2, 2, 2]


def test_params_validation(tooth_setup):
    pipeline = _pipeline(tooth_setup[0], 10.0)
    with pytest.raises(ValueError, match="mu must be >= 0"):
        pipeline.refine("mu", -2.0)
    with pytest.raises(ValueError, match="mu must be >= 0"):
        pipeline.refine("mu", float("nan"))


def test_singleton_classes_skip_dijkstra(monkeypatch):
    calls = []
    refine = mu_balls.refine_classes
    monkeypatch.setattr(mu_balls, "refine_classes", lambda flat, ordering, step, region: refine(
        flat, ordering, lambda o, s: calls.append(s.tolist()) or step(o, s),
        lambda s, o: calls.append(s) or region(s, o)))
    cube = SpectralCube(np.arange(12, dtype=float).reshape(3, 4, 1))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    # class 0 is the top row; every other pixel is a class of its own
    flat = LabelMap(np.array([[0, 0, 0, 0], [1, 2, 3, 4], [5, 6, 7, 8]]))
    expected = [[0, 0, 0, 1], [2, 3, 4, 5], [6, 7, 8, 9]]
    pipeline = Pipeline(metric, build_edge_weights(metric), flat, SeedOrder.MEDIAN_FIRST)
    out = pipeline.refine("mu", 1.5)
    # class 0 in seed order is pixels 1, 2, 0, 3: the first lockstep step
    # seeds it at raster pixel 1, the second at its last free pixel, 3
    assert calls == [[1], [3]]
    assert out.labels.tolist() == expected
    # above the gate it runs one search per seed, from raster pixels 1 and 3
    monkeypatch.setattr(growth, "_LOCKSTEP_MAX_PIXELS", 1)
    calls.clear()
    out = pipeline.refine("mu", 1.5)
    assert calls == [1, 3]
    assert out.labels.tolist() == expected

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsseg import (Connectivity, LabelMap, LambdaParams, MetricKind, MuParams,
                   PixelIndex, SeedOrder, SpectralCube, build_edge_weights,
                   build_metric, classes_are_connected, geodesic_ball,
                   is_refinement, lambda_flat_zones, mu_geodesic_balls)
from hsseg import mu_balls

from conftest import cubes
from oracles import bellman_ford, mu_balls_bruteforce


def chain_cube():
    # 1-D chain of 5 pixels with consecutive spectral steps of 10
    return SpectralCube(np.array([[[0.0], [10.0], [20.0], [30.0], [40.0]]]))


def test_chain_prefix_ball():
    cube = chain_cube()
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    domain = [(x, 0) for x in range(5)]
    ball = geodesic_ball(m, domain, (0, 0), 25.0)
    assert ball == {PixelIndex(0, 0): 0.0, PixelIndex(1, 0): 10.0,
                    PixelIndex(2, 0): 20.0}


def test_zero_radius_keeps_zero_cost_plateau():
    cube = SpectralCube(np.array([[[5.0], [5.0]], [[7.0], [9.0]]]))
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    domain = [(0, 0), (1, 0), (0, 1), (1, 1)]
    ball = geodesic_ball(m, domain, (0, 0), 0.0)
    assert ball == {PixelIndex(0, 0): 0.0, PixelIndex(1, 0): 0.0}


def test_seed_outside_domain_rejected():
    m = build_metric(chain_cube(), MetricKind.EUCLIDEAN)
    with pytest.raises(ValueError):
        geodesic_ball(m, [(0, 0), (1, 0)], (3, 0), 10.0)
    with pytest.raises(ValueError):
        geodesic_ball(m, [(0, 0)], (0, 0), -1.0)


def test_ball_respects_domain_restriction():
    cube = chain_cube()
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    # removing the middle pixel cuts the chain
    domain = [(0, 0), (1, 0), (3, 0), (4, 0)]
    ball = geodesic_ball(m, domain, (0, 0), 100.0)
    assert set(ball) == {(0, 0), (1, 0)}


@given(cubes(max_side=8), st.floats(0.0, 2.5), st.sampled_from(list(Connectivity)),
       st.data())
@settings(max_examples=60, deadline=None)
def test_distances_match_bellman_ford(cube, mu, conn, data):
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    pix = [PixelIndex(x, y) for y in range(cube.height) for x in range(cube.width)]
    k = data.draw(st.integers(1, len(pix)))
    domain = data.draw(st.permutations(pix))[:k]
    seed = data.draw(st.sampled_from(domain))
    got = geodesic_ball(m, domain, seed, mu, conn)
    full = bellman_ford(m, domain, seed, conn)
    expected = {p: d for p, d in full.items() if d <= mu}
    assert set(got) == set(expected)
    for p in got:
        assert got[p] == pytest.approx(expected[p], abs=1e-9)
        # path weight dominates the direct metric distance
        assert m.distance(seed, p) <= got[p] + 1e-12


@given(cubes(max_side=5), st.floats(0.0, 1.0), st.floats(0.0, 1.5))
@settings(max_examples=40, deadline=None)
def test_ball_nesting(cube, mu_small, extra):
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    pix = [PixelIndex(x, y) for y in range(cube.height) for x in range(cube.width)]
    small = geodesic_ball(m, pix, pix[0], mu_small)
    large = geodesic_ball(m, pix, pix[0], mu_small + extra)
    assert set(small) <= set(large)


def _flat_for(cube, lam, conn=Connectivity.FOUR):
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    return metric, lambda_flat_zones(cube, LambdaParams(metric, lam, conn))


@pytest.mark.parametrize("mu", [0.0, 20.0, 40.0, 100.0])
def test_tooth_saw_matches_oracle(tooth_setup, mu):
    cube, metric = tooth_setup
    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0))
    got = mu_geodesic_balls(cube, metric, flat, MuParams(mu))
    expected, _ = mu_balls_bruteforce(cube, metric, flat, mu)
    assert np.array_equal(got.labels, expected.labels)


def test_tooth_saw_profile_peak_behavior(tooth_setup):
    # on the row profile, a ball from the valley seed stops where the
    # cumulative climb exceeds mu, not at the first peak
    cube, metric = tooth_setup
    row = [(x, 0) for x in range(21)]
    ball20 = geodesic_ball(metric, row, (3, 0), 20.0)
    ball60 = geodesic_ball(metric, row, (3, 0), 60.0)
    assert {p.x for p in ball20} == {1, 2, 3, 4, 5}
    assert {p.x for p in ball60} == set(range(10))


@given(cubes(max_side=6), st.floats(0.0, 1.2), st.floats(0.0, 2.0),
       st.sampled_from(list(Connectivity)), st.booleans())
@settings(max_examples=60, deadline=None)
def test_matches_bruteforce_oracle(cube, lam, mu, conn, antimedian):
    metric, flat = _flat_for(cube, lam, conn)
    order = SeedOrder.ANTIMEDIAN_FIRST if antimedian else SeedOrder.MEDIAN_FIRST
    got = mu_geodesic_balls(cube, metric, flat, MuParams(mu, order), conn)
    expected, balls = mu_balls_bruteforce(cube, metric, flat, mu, antimedian, conn)
    assert np.array_equal(got.labels, expected.labels)
    assert is_refinement(got, flat)
    assert classes_are_connected(got, conn)
    for seed, ball in balls:
        for p, d in ball.items():
            assert metric.distance(seed, p) <= d + 1e-12 and d <= mu


def test_mu_above_total_edge_weight_reproduces_flat_zones(tooth_setup):
    cube, metric = tooth_setup
    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0))
    ew = build_edge_weights(metric, Connectivity.FOUR)
    out = mu_geodesic_balls(cube, metric, flat, MuParams(ew.total_weight()))
    assert np.array_equal(out.labels, flat.labels)


def test_deterministic(tooth_setup):
    cube, metric = tooth_setup
    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0))
    a = mu_geodesic_balls(cube, metric, flat, MuParams(30.0))
    b = mu_geodesic_balls(cube, metric, flat, MuParams(30.0))
    assert np.array_equal(a.labels, b.labels)


def test_sweep_counts_regression(tooth_setup):
    # frozen from oracle-verified runs on the default saw; the median seed
    # sits 17 columns from the far edge, so radius 100 cannot reach one
    # region and the curve bottoms out at 2
    cube, metric = tooth_setup
    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0))
    counts = [mu_geodesic_balls(cube, metric, flat, MuParams(float(v))).count
              for v in range(0, 101, 10)]
    assert counts == [21, 10, 7, 4, 3, 3, 3, 3, 2, 2, 2]


def test_params_validation():
    with pytest.raises(ValueError):
        MuParams(-2.0)
    with pytest.raises(ValueError):
        MuParams(float("nan"))


def test_singleton_classes_skip_dijkstra(monkeypatch):
    calls = []
    ball = mu_balls._dijkstra_ball
    monkeypatch.setattr(mu_balls, "_dijkstra_ball",
                        lambda e, d, s, r: calls.append(s) or ball(e, d, s, r))
    cube = SpectralCube(np.arange(12, dtype=float).reshape(3, 4, 1))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    # class 0 is the top row; every other pixel is a class of its own
    flat = LabelMap(np.array([[0, 0, 0, 0], [1, 2, 3, 4], [5, 6, 7, 8]]))
    out = mu_geodesic_balls(cube, metric, flat, MuParams(1.5))
    assert calls == [1, 3]
    assert out.labels.tolist() == [[0, 0, 0, 1], [2, 3, 4, 5], [6, 7, 8, 9]]

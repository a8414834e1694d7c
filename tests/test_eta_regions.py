import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsseg import (Connectivity, EtaParams, LabelMap, LambdaParams, MetricKind,
                   SeedOrder, SpectralCube, build_metric, eta_bounded_regions,
                   lambda_flat_zones, relabel_dense)
from hsseg import eta_regions, seeds

from conftest import cubes
from oracles import classes_are_connected, eta_regions_bruteforce, is_refinement


def _flat_for(cube, lam, conn=Connectivity.FOUR):
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    return metric, lambda_flat_zones(cube, LambdaParams(metric, lam, conn))


def test_large_eta_reproduces_flat_zones(tooth_setup):
    cube, metric = tooth_setup
    flat = lambda_flat_zones(cube, LambdaParams(metric, 9.9))
    out = eta_bounded_regions(cube, metric, flat, EtaParams(1e18))
    assert np.array_equal(out.labels, flat.labels)


def test_tooth_saw_eta_zero_matches_oracle(tooth_setup):
    cube, metric = tooth_setup
    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0))
    got = eta_bounded_regions(cube, metric, flat, EtaParams(0.0))
    expected, regions = eta_regions_bruteforce(cube, MetricKind.EUCLIDEAN, flat, 0.0)
    assert np.array_equal(got.labels, expected.labels)
    # identical spectra only: every region is one full-height column
    assert got.count == 21
    for seed, members in regions:
        pts = np.array([p.y * cube.width + p.x for p in members])
        assert (metric.distances_flat(seed.y * cube.width + seed.x, pts) == 0.0).all()


@pytest.mark.parametrize("eta", [10.0, 20.0, 30.0])
def test_tooth_saw_banding_matches_oracle(tooth_setup, eta):
    cube, metric = tooth_setup
    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0))
    got = eta_bounded_regions(cube, metric, flat, EtaParams(eta))
    expected, _ = eta_regions_bruteforce(cube, MetricKind.EUCLIDEAN, flat, eta)
    assert np.array_equal(got.labels, expected.labels)


@given(cubes(max_side=6), st.floats(0.0, 1.2), st.floats(0.0, 1.5),
       st.sampled_from(list(Connectivity)), st.booleans())
@settings(max_examples=60, deadline=None)
def test_matches_bruteforce_oracle(cube, lam, eta, conn, antimedian):
    metric, flat = _flat_for(cube, lam, conn)
    order = SeedOrder.ANTIMEDIAN_FIRST if antimedian else SeedOrder.MEDIAN_FIRST
    got = eta_bounded_regions(cube, metric, flat, EtaParams(eta, order), conn)
    expected, regions = eta_regions_bruteforce(cube, MetricKind.EUCLIDEAN, flat, eta,
                                               antimedian, conn)
    assert np.array_equal(got.labels, expected.labels)
    # invariants: refinement, coverage, per-region bound and connectivity
    assert is_refinement(got, flat)
    assert classes_are_connected(got, conn)
    for seed, members in regions:
        pts = np.array([p.y * cube.width + p.x for p in members])
        assert (metric.distances_flat(seed.y * cube.width + seed.x, pts) <= eta).all()


@given(cubes(max_side=5), st.floats(0.0, 1.5))
@settings(max_examples=40, deadline=None)
def test_coverage_and_disjointness_per_class(cube, eta):
    metric, flat = _flat_for(cube, 0.4)
    out = eta_bounded_regions(cube, metric, flat, EtaParams(eta))
    # total assignment: LabelMap construction already forbids gaps; check
    # region-to-class containment per flat class
    for c in range(flat.count):
        mask = flat.labels == c
        region_labels = set(out.labels[mask].ravel().tolist())
        for r in region_labels:
            assert (flat.labels[out.labels == r] == c).all()


def test_deterministic(tooth_setup):
    cube, metric = tooth_setup
    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0))
    a = eta_bounded_regions(cube, metric, flat, EtaParams(20.0))
    b = eta_bounded_regions(cube, metric, flat, EtaParams(20.0))
    assert np.array_equal(a.labels, b.labels)


def test_eta_terminal_count_equals_flat_zone_count(tooth_setup):
    cube, metric = tooth_setup
    for lam in (9.9, 10.0):
        flat = lambda_flat_zones(cube, LambdaParams(metric, lam))
        out = eta_bounded_regions(cube, metric, flat, EtaParams(100.0))
        assert out.count == flat.count


def test_sweep_counts_regression(tooth_setup):
    # frozen from oracle-verified runs on the default saw (amplitude 70)
    cube, metric = tooth_setup
    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0))
    counts = [eta_bounded_regions(cube, metric, flat, EtaParams(float(v))).count
              for v in range(0, 101, 10)]
    assert counts == [21, 9, 7, 3, 1, 1, 1, 1, 1, 1, 1]


def test_params_validation():
    with pytest.raises(ValueError):
        EtaParams(-0.5)
    with pytest.raises(ValueError):
        EtaParams(float("nan"))


def test_flat_partition_must_match_grid(tooth_setup):
    from hsseg import LabelMap

    cube, metric = tooth_setup
    wrong = LabelMap(np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        eta_bounded_regions(cube, metric, wrong, EtaParams(1.0))


def test_singleton_classes_skip_distances(monkeypatch):
    # every distance of the ordering and of the pass goes through these names
    calls = []
    for module in (seeds, eta_regions):
        for name in ("pair_distances", "_norms"):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, name=name, fn=fn:
                                calls.append(name) or fn(*a))
    rng = np.random.default_rng(2)
    cube = SpectralCube(rng.uniform(0, 1, size=(3, 4, 2)))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    flat = LabelMap(np.arange(12).reshape(3, 4))
    out = eta_bounded_regions(cube, metric, flat, EtaParams(0.0))
    assert calls == []
    assert np.array_equal(out.labels, flat.labels)
    # the spies see a class of two pixels: one block in the ordering, one in the pass
    flat = relabel_dense(np.array([[0, 0, 1, 2], [3, 4, 5, 6], [7, 8, 9, 10]]))
    out = eta_bounded_regions(cube, metric, flat, EtaParams(0.0))
    assert calls == ["pair_distances", "_norms"] * 2
    assert out.count == 12

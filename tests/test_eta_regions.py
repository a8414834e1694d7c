import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsseg import (Connectivity, LabelMap, MetricKind, Pipeline, SeedOrder, SpectralCube,
                   build_edge_weights, build_metric, prepare, relabel_dense)
from hsseg import eta_regions, growth, seeds

from conftest import cubes, distance_row
from oracles import classes_are_connected, eta_regions_bruteforce, is_refinement


def _pipeline(cube, lam, conn=Connectivity.FOUR, order=SeedOrder.MEDIAN_FIRST):
    return prepare(cube, MetricKind.EUCLIDEAN, lam, conn, order)


def test_large_eta_reproduces_flat_zones(tooth_setup):
    pipeline = _pipeline(tooth_setup[0], 9.9)
    out = pipeline.refine("eta", 1e18)
    assert np.array_equal(out.labels, pipeline.flat.labels)


def test_tooth_saw_eta_zero_matches_oracle(tooth_setup):
    cube, metric = tooth_setup
    pipeline = _pipeline(cube, 10.0)
    flat = pipeline.flat
    got = pipeline.refine("eta", 0.0)
    expected, regions = eta_regions_bruteforce(cube, MetricKind.EUCLIDEAN, flat, 0.0)
    assert np.array_equal(got.labels, expected.labels)
    # identical spectra only: every region is one full-height column
    assert got.count == 21
    for seed, members in regions:
        pts = np.array([p.y * cube.width + p.x for p in members])
        assert (distance_row(metric, seed.y * cube.width + seed.x, pts) == 0.0).all()


@pytest.mark.parametrize("eta", [10.0, 20.0, 30.0])
def test_tooth_saw_banding_matches_oracle(tooth_setup, eta):
    cube, _ = tooth_setup
    pipeline = _pipeline(cube, 10.0)
    got = pipeline.refine("eta", eta)
    expected, _ = eta_regions_bruteforce(cube, MetricKind.EUCLIDEAN, pipeline.flat, eta)
    assert np.array_equal(got.labels, expected.labels)


@given(cubes(max_side=6), st.floats(0.0, 1.2), st.floats(0.0, 1.5),
       st.sampled_from(list(Connectivity)), st.booleans())
@settings(max_examples=60, deadline=None)
def test_matches_bruteforce_oracle(cube, lam, eta, conn, antimedian):
    order = SeedOrder.ANTIMEDIAN_FIRST if antimedian else SeedOrder.MEDIAN_FIRST
    pipeline = _pipeline(cube, lam, conn, order)
    metric, flat = pipeline.metric, pipeline.flat
    got = pipeline.refine("eta", eta)
    expected, regions = eta_regions_bruteforce(cube, MetricKind.EUCLIDEAN, flat, eta,
                                               antimedian, conn)
    assert np.array_equal(got.labels, expected.labels)
    # invariants: refinement, coverage, per-region bound and connectivity
    assert is_refinement(got, flat)
    assert classes_are_connected(got, conn)
    for seed, members in regions:
        pts = np.array([p.y * cube.width + p.x for p in members])
        assert (distance_row(metric, seed.y * cube.width + seed.x, pts) <= eta).all()


@given(cubes(max_side=5), st.floats(0.0, 1.5))
@settings(max_examples=40, deadline=None)
def test_coverage_and_disjointness_per_class(cube, eta):
    pipeline = _pipeline(cube, 0.4)
    flat = pipeline.flat
    out = pipeline.refine("eta", eta)
    # total assignment: LabelMap construction already forbids gaps; check
    # region-to-class containment per flat class
    for c in range(flat.count):
        mask = flat.labels == c
        region_labels = set(out.labels[mask].ravel().tolist())
        for r in region_labels:
            assert (flat.labels[out.labels == r] == c).all()


def test_deterministic(tooth_setup):
    pipeline = _pipeline(tooth_setup[0], 10.0)
    a = pipeline.refine("eta", 20.0)
    b = pipeline.refine("eta", 20.0)
    assert np.array_equal(a.labels, b.labels)


def test_eta_terminal_count_equals_flat_zone_count(tooth_setup):
    for lam in (9.9, 10.0):
        pipeline = _pipeline(tooth_setup[0], lam)
        out = pipeline.refine("eta", 100.0)
        assert out.count == pipeline.flat.count


def test_sweep_counts_regression(tooth_setup):
    # frozen from oracle-verified runs on the default saw (amplitude 70)
    pipeline = _pipeline(tooth_setup[0], 10.0)
    counts = [pipeline.refine("eta", float(v)).count for v in range(0, 101, 10)]
    assert counts == [21, 9, 7, 3, 1, 1, 1, 1, 1, 1, 1]


def test_params_validation(tooth_setup):
    pipeline = _pipeline(tooth_setup[0], 10.0)
    with pytest.raises(ValueError, match="eta must be >= 0"):
        pipeline.refine("eta", -0.5)
    with pytest.raises(ValueError, match="eta must be >= 0"):
        pipeline.refine("eta", float("nan"))
    with pytest.raises(ValueError, match="unknown refinement 'flat'"):
        pipeline.refine("flat", 1.0)
    # a pipeline built without a seed order has flat zones and no refinement
    flat_only = prepare(tooth_setup[0], MetricKind.EUCLIDEAN, 10.0, Connectivity.FOUR, None)
    with pytest.raises(ValueError, match="needs a seed order"):
        flat_only.refine("eta", 1.0)


def test_singleton_classes_skip_distances(monkeypatch):
    # every distance of the ordering and of the pass, and every lockstep
    # step the pass hands to refine_classes, goes through these names
    calls = []
    spied = ((seeds, ("pair_distances", "_norms")), (eta_regions, ("_norms",)))
    for module, names in spied:
        for name in names:
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, name=name, fn=fn:
                                calls.append(name) or fn(*a))
    refine = eta_regions.refine_classes
    monkeypatch.setattr(eta_regions, "refine_classes", lambda flat, ordering, step, region: refine(
        flat, ordering, lambda o, s: calls.append("step") or step(o, s), region))
    rng = np.random.default_rng(2)
    cube = SpectralCube(rng.uniform(0, 1, size=(3, 4, 2)))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    edge_weights = build_edge_weights(metric)

    def eta_zero(flat, eta=0.0):
        # a new pipeline, so its ordering is built afresh
        return Pipeline(metric, edge_weights, flat, SeedOrder.MEDIAN_FIRST).refine("eta", eta)

    flat = LabelMap(np.arange(12).reshape(3, 4))
    out = eta_zero(flat)
    assert calls == []
    assert np.array_equal(out.labels, flat.labels)
    # the spies see a class of two pixels: one block in the ordering, then one
    # lockstep step per region, and one seed row per free class pixel
    # its frontier reaches: at eta 0 the first seed reaches its partner and
    # rejects it, and the partner reaches none
    flat = relabel_dense(np.array([[0, 0, 1, 2], [3, 4, 5, 6], [7, 8, 9, 10]]))
    out = eta_zero(flat)
    assert calls == ["pair_distances", "_norms"] + ["step", "_norms", "step"]
    assert out.count == 12
    # above the gate a region takes one distance row per breadth-first level
    # that reaches a free pixel, and no lockstep step: at eta 0 the first seed's
    # level reaches its partner and rejects it, and the partner's reaches none
    monkeypatch.setattr(growth, "_LOCKSTEP_MAX_PIXELS", 1)
    calls.clear()
    assert np.array_equal(eta_zero(flat).labels, out.labels)
    assert calls == ["pair_distances", "_norms"] + ["_norms"]
    # at a large eta the first level takes the partner, and the next reaches none
    calls.clear()
    assert np.array_equal(eta_zero(flat, 1e18).labels, flat.labels)
    assert calls == ["pair_distances", "_norms"] + ["_norms"]

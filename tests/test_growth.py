import tracemalloc

import numpy as np
import pytest

from hsseg import (Connectivity, EdgeWeights, LabelMap, MetricKind, Pipeline, SeedOrder,
                   SpectralCube, build_edge_weights, build_metric, prepare)
from hsseg import eta_regions, growth

from conftest import distance_row, mu_traversals
from oracles import eta_regions_bruteforce, mu_balls_bruteforce

GATE = growth._LOCKSTEP_MAX_PIXELS
ETAS = (0.0, 1.5, 1e18)
MUS = (0.0, 3.0, 1e18)


def _snake_partition(k):
    """Five snake classes of k pixels, one one-pixel-wide column and a row of singletons.

    The grid is 6 wide and k + 1 high. Columns 0-4 of the top k rows are cut
    into runs of k pixels along a boustrophedon path, so each run is
    4-connected and turns where the path does; column 5 is a straight chain
    of k pixels with hop diameter k - 1; the bottom row holds six one-pixel
    classes.
    """
    labels = np.empty((k + 1, 6), dtype=np.int32)
    path = [(y, x if y % 2 == 0 else 4 - x) for y in range(k) for x in range(5)]
    for i, (y, x) in enumerate(path):
        labels[y, x] = i // k
    labels[:k, 5] = 5
    labels[k] = np.arange(6, 12)
    return LabelMap(labels)


def _run_both(metric, flat, conn, order, monkeypatch):
    """eta and mu labels at every value of ETAS and MUS, in lockstep and per seed."""
    pipeline = Pipeline(metric, build_edge_weights(metric, conn), flat, order)
    runs = []
    for gate in (GATE, 1):
        monkeypatch.setattr(growth, "_LOCKSTEP_MAX_PIXELS", gate)
        runs.append([pipeline.refine("eta", v).labels for v in ETAS] +
                    [pipeline.refine("mu", v).labels for v in MUS])
    return runs


@pytest.mark.parametrize("conn", list(Connectivity))
@pytest.mark.parametrize("k", [*range(2, 17), 24, 40])
def test_lockstep_matches_oracles_and_per_seed_path(k, conn, monkeypatch):
    # integer levels: exact ties in distances, cumulative distances and
    # geodesic sums, and zero-weight plateaus; every k is grown in lockstep at
    # the gate and walked seed by seed at gate 1
    rng = np.random.default_rng(k)
    cube = SpectralCube(rng.integers(1, 4, size=(k + 1, 6, 2)).astype(float))
    flat = _snake_partition(k)
    for kind in MetricKind:
        metric = build_metric(cube, kind)
        for order in SeedOrder:
            lockstep, per_seed = _run_both(metric, flat, conn, order, monkeypatch)
            anti = order is SeedOrder.ANTIMEDIAN_FIRST
            expected = [eta_regions_bruteforce(cube, kind, flat, v, anti, conn)[0].labels
                        for v in ETAS]
            expected += [mu_balls_bruteforce(cube, kind, flat, v, anti, conn)[0].labels
                         for v in MUS]
            for got, seed_by_seed, want in zip(lockstep, per_seed, expected):
                assert np.array_equal(got, want)
                assert np.array_equal(seed_by_seed, want)


def _mixed_partition():
    """One 200-pixel class above rows of classes of 1 to 20 pixels, on a 20x16 grid."""
    rows = [[20], [2, 3, 5, 10], [1, 1, 1, 1, 4, 6, 6], [7, 13], [1] * 20, [15, 5]]
    labels = np.zeros((10 + len(rows), 20), dtype=np.int32)
    c = 1
    for y, runs in enumerate(rows, 10):
        for x, n in zip(np.cumsum([0, *runs[:-1]]), runs):
            labels[y, x:x + n] = c
            c += 1
    return LabelMap(labels)


@pytest.mark.parametrize("conn", list(Connectivity))
@pytest.mark.parametrize("order", list(SeedOrder))
def test_one_pass_steps_small_classes_and_walks_a_large_one(conn, order):
    # both paths share one owner array in one pass: the walked class enters
    # it only after the lockstep has drained
    flat = _mixed_partition()
    sizes = np.bincount(flat.labels.ravel())
    assert sizes.max() > GATE and set(range(1, 8)) <= set(sizes.tolist())
    rng = np.random.default_rng(16)
    cube = SpectralCube(rng.integers(1, 4, size=(16, 20, 2)).astype(float))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    pipeline = Pipeline(metric, build_edge_weights(metric, conn), flat, order)
    anti = order is SeedOrder.ANTIMEDIAN_FIRST
    for eta in ETAS:
        want = eta_regions_bruteforce(cube, MetricKind.EUCLIDEAN, flat, eta, anti, conn)[0]
        assert np.array_equal(pipeline.refine("eta", eta).labels, want.labels)
    for mu in (1.5, *MUS[1:]):  # mu 0 takes the Bellman-Ford oracle seconds here
        want = mu_balls_bruteforce(cube, MetricKind.EUCLIDEAN, flat, mu, anti, conn)[0]
        assert np.array_equal(pipeline.refine("mu", mu).labels, want.labels)


def test_pass_state_is_reset_between_steps_and_values():
    # each pass keeps one geodesic-sum array and one class-to-seed table for
    # all its lockstep steps: a 12-pixel and a 7-pixel column class at lambda
    # 0.5, whose regions at a small bound take up to 12 steps, among singletons
    w, h = 5, 12
    band0 = 100.0 + 10.0 * np.arange(w * h, dtype=float).reshape(h, w)
    band0[:, 0] = 0.25 * np.arange(h)
    band0[:7, 3] = 50.0 + 0.4 * np.arange(7)
    cube = SpectralCube(np.stack([band0, np.ones((h, w))], axis=-1))
    kind = MetricKind.EUCLIDEAN
    for order in SeedOrder:
        pipeline = prepare(cube, kind, 0.5, Connectivity.FOUR, order)
        flat = pipeline.flat
        assert sorted(np.bincount(flat.labels.ravel()))[-2:] == [7, 12]
        anti = order is SeedOrder.ANTIMEDIAN_FIRST
        for value in (0.0, 0.3, 1e18, 0.6, 0.0):
            want = eta_regions_bruteforce(cube, kind, flat, value, anti)[0]
            assert np.array_equal(pipeline.refine("eta", value).labels, want.labels)
            want = mu_balls_bruteforce(cube, kind, flat, value, anti)[0]
            assert np.array_equal(pipeline.refine("mu", value).labels, want.labels)


@pytest.mark.parametrize("bands", [1, 7, 8, 9, 16, 33, 128, 129])
def test_eta_seed_rows_keep_their_bits(bands, monkeypatch):
    # band counts at the block edges of numpy's pairwise sum
    rng = np.random.default_rng(bands)
    k = 16
    cube = SpectralCube(rng.uniform(0.1, 1.0, size=(k, 12, bands)))
    flat = LabelMap(np.tile(np.arange(12), (k, 1)))
    for kind in MetricKind:
        metric = build_metric(cube, kind)
        pipeline = Pipeline(metric, build_edge_weights(metric), flat, SeedOrder.MEDIAN_FIRST)
        pts = np.arange(k * 12).reshape(k, 12).T
        seeds = rng.integers(0, k, size=12)
        # a lockstep level's rows: one seed per pixel, classes interleaved
        order = rng.permutation(k * 12)
        rows = np.empty(k * 12)
        rows[order] = eta_regions._seed_rows(
            metric, pts.ravel()[order], np.repeat(pts[np.arange(12), seeds], k)[order])
        rows = rows.reshape(12, k)
        for i, (row, seed) in enumerate(zip(rows, seeds)):
            # each is the seed's row over its whole class
            full = distance_row(metric, pts[i, seed], pts[i])
            assert row.tobytes() == full.tobytes()
            # a frontier level's row: an unsorted subset of the class, one seed
            sub = rng.permutation(k)[:rng.integers(1, k + 1)]
            frontier = eta_regions._seed_rows(metric, pts[i, sub], pts[i, seed])
            assert frontier.tobytes() == full[sub].tobytes()
        # at an eta equal to a distance the comparison is a tie, so a row one
        # ulp off would move a pixel
        for eta in np.sort(rows.ravel())[::29]:
            labels = []
            for gate in (GATE, 1):
                monkeypatch.setattr(growth, "_LOCKSTEP_MAX_PIXELS", gate)
                labels.append(pipeline.refine("eta", eta).labels)
            assert np.array_equal(*labels)


def test_eta_walk_computes_distances_only_at_its_frontier(monkeypatch):
    # one class of 900 distinct spectra with eta below every step: each
    # region is its seed alone, and each seed needs the distances to its at
    # most four free neighbours, not a row over the whole class
    rng = np.random.default_rng(5)
    cube = SpectralCube(rng.uniform(0.1, 1.0, size=(30, 30, 8)))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    edge_weights = build_edge_weights(metric)
    flat = LabelMap(np.zeros((30, 30), dtype=np.int32))
    pipeline = Pipeline(metric, edge_weights, flat, SeedOrder.MEDIAN_FIRST)
    pipeline.ordering  # its distances are not the pass's
    evaluated = []
    norms = eta_regions._norms
    monkeypatch.setattr(eta_regions, "_norms",
                        lambda diff: evaluated.append(diff[..., 0].size) or norms(diff))
    out = pipeline.refine("eta", edge_weights.weights.min() / 2)
    assert out.count == 900
    assert 0 < sum(evaluated) <= 900 * 4


def test_lockstep_eta_computes_distances_only_at_its_frontier(monkeypatch):
    # 1000 column classes of 16 pixels with eta below every step: each region
    # is its seed alone, and each seed needs the distances to its at most two
    # free class neighbours, not a row over the whole class
    rng = np.random.default_rng(6)
    cube = SpectralCube(rng.uniform(0.1, 1.0, size=(16, 1000, 8)))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    edge_weights = build_edge_weights(metric)
    flat = LabelMap(np.tile(np.arange(1000), (16, 1)))
    pipeline = Pipeline(metric, edge_weights, flat, SeedOrder.MEDIAN_FIRST)
    pipeline.ordering  # its distances are not the pass's
    evaluated = []
    norms = eta_regions._norms
    monkeypatch.setattr(eta_regions, "_norms",
                        lambda diff: evaluated.append(diff[..., 0].size) or norms(diff))
    out = pipeline.refine("eta", edge_weights.weights.min() / 2)
    assert out.count == 16000
    assert 0 < sum(evaluated) <= 16000 * 4


def test_lockstep_batches_keep_a_bounded_peak():
    # column classes of 16 pixels at 64 bands, one region each. At 4000
    # classes one eta level in a single (pixels, bands) distance block would
    # take 4 MB, and the blocked steps stay under 3 MB.
    for classes in (1000, 4000):
        rng = np.random.default_rng(3)
        cube = SpectralCube(rng.uniform(0.1, 1.0, size=(16, classes, 64)))
        metric = build_metric(cube, MetricKind.EUCLIDEAN)
        flat = LabelMap(np.tile(np.arange(classes), (16, 1)))
        pipeline = Pipeline(metric, build_edge_weights(metric), flat, SeedOrder.MEDIAN_FIRST)
        pipeline.ordering  # built before the peak is traced
        for algo in ("eta", "mu"):
            tracemalloc.start()
            try:
                out = pipeline.refine(algo, 1e18)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.count == classes
            assert peak < 3 << 20


def test_grow_members_are_the_settled_set():
    # a chain 0 - 1 - 2 - 3 of one class with steps 1, 2, 0
    neighbors = np.array([[-1, 1], [0, 2], [1, 3], [2, -1]], dtype=np.int32)
    w = np.array([[np.inf, 1.0], [1.0, 2.0], [2.0, 0.0], [0.0, np.inf]])
    edge_weights = EdgeWeights(neighbors, w)

    def members(radius, owner=(0, 0, 0, 0), seed=0):
        # the lockstep step and the walk's region agree
        step, region = mu_traversals(edge_weights, radius)
        grown = []
        for grow in (lambda o: step(o, np.array([seed])), lambda o: region(seed, o)):
            o = np.array([*owner, -1], dtype=np.int32)
            before = o.copy()
            got = np.asarray(grow(o))
            # the region is taken from owner, and nothing else is
            assert np.array_equal(o < 0, (before < 0) | np.isin(np.arange(5), got))
            grown.append(sorted(set(got.tolist())))
        assert grown[0] == grown[1]
        return grown[0]

    assert members(1.0) == [0, 1]
    # inclusive radius: 1 + 2 = 3 and the zero step after it are both in
    assert members(3.0) == [0, 1, 2, 3]
    assert members(2.5) == [0, 1]
    # a taken pixel blocks the path, and a pixel of another class is not entered
    assert members(np.inf, owner=(0, 0, -1, 0)) == [0, 1]
    assert members(np.inf, owner=(0, 0, 0, 1)) == [0, 1, 2]
    # a zero radius takes the zero step only
    assert members(0.0, seed=2) == [2, 3]
    # an overflowing step sums to +inf: never reached, even at radius inf
    w[0, 1] = w[1, 0] = np.inf
    assert members(np.inf) == [0]

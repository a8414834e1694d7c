import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsseg import (EtaParams, LabelMap, LambdaParams, MetricKind, MuParams,
                   RegionSizeCapError, SeedOrder, SpectralCube, build_edge_weights,
                   build_metric, eta_bounded_regions, lambda_flat_zones,
                   mu_geodesic_balls, order_classes, relabel_dense)
from hsseg import seeds
from hsseg.seeds import class_orderings

from conftest import cubes, region_seeds
from oracles import PixelIndex, naive_cumdists, reference_orderings

ANTI = SeedOrder.ANTIMEDIAN_FIRST


def triangle_cube():
    # mutual euclidean distances 3, 4, 5 between the three pixels
    return SpectralCube(np.array([[[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]]))


def test_singleton_region():
    m = build_metric(triangle_cube(), MetricKind.EUCLIDEAN)
    assert region_seeds(m, [(1, 0)]) == ({PixelIndex(1, 0): 0.0}, [(1, 0)])


def test_triangle_cumdists():
    m = build_metric(triangle_cube(), MetricKind.EUCLIDEAN)
    cd, _ = region_seeds(m, [(0, 0), (1, 0), (2, 0)])
    assert cd[PixelIndex(0, 0)] == pytest.approx(3 + 5, abs=1e-12)
    assert cd[PixelIndex(1, 0)] == pytest.approx(3 + 4, abs=1e-12)
    assert cd[PixelIndex(2, 0)] == pytest.approx(4 + 5, abs=1e-12)


def test_region_size_cap():
    m = build_metric(triangle_cube(), MetricKind.EUCLIDEAN)
    with pytest.raises(RegionSizeCapError):
        region_seeds(m, [(0, 0), (1, 0), (2, 0)], max_region_size=2)


@given(cubes(max_side=6, max_bands=3), st.data())
@settings(max_examples=60, deadline=None)
def test_matches_double_loop_oracle(cube, data):
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    pix = [PixelIndex(x, y) for y in range(cube.height) for x in range(cube.width)]
    k = data.draw(st.integers(1, len(pix)))
    region = data.draw(st.permutations(pix)).copy()[:k]
    got, _ = region_seeds(m, region)
    expected = naive_cumdists(cube, MetricKind.EUCLIDEAN, region)
    for p in region:
        assert got[p] == pytest.approx(expected[p], abs=1e-9)


def test_seed_orders():
    # cumulative distances 8, 7, 9 (see test_triangle_cumdists)
    m = build_metric(triangle_cube(), MetricKind.EUCLIDEAN)
    region = [(0, 0), (1, 0), (2, 0)]
    assert region_seeds(m, region)[1] == [(1, 0), (0, 0), (2, 0)]
    assert region_seeds(m, region, ANTI)[1] == [(2, 0), (0, 0), (1, 0)]


def test_ties_break_on_raster_index():
    # two pixels of value 0 and two of value 1: every cumulative distance is 2
    values = np.full((3, 4, 1), 9.0)
    for (x, y), v in {(1, 2): 0.0, (3, 0): 0.0, (0, 2): 1.0, (2, 1): 1.0}.items():
        values[y, x, 0] = v
    m = build_metric(SpectralCube(values), MetricKind.EUCLIDEAN)
    region = [(1, 2), (3, 0), (0, 2), (2, 1)]
    cd, med = region_seeds(m, region)
    assert set(cd.values()) == {2.0}
    assert med == [(3, 0), (2, 1), (0, 2), (1, 2)]
    assert region_seeds(m, region, ANTI)[1] == med


def test_antimedian_is_reverse_up_to_tie_blocks():
    rng = np.random.default_rng(3)
    cube = SpectralCube(rng.uniform(0, 1, (4, 4, 2)))
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    region = [PixelIndex(x, y) for y in range(4) for x in range(4)]
    cd, _ = region_seeds(m, region)
    anti_keys, anti = region_seeds(m, region, ANTI)
    assert all(anti_keys[p] == -cd[p] for p in region)
    assert [cd[p] for p in anti] == sorted(cd.values(), reverse=True)


@given(cubes(max_side=5), st.data())
@settings(max_examples=60, deadline=None)
def test_median_minimizes_cumulative_distance(cube, data):
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    pix = [PixelIndex(x, y) for y in range(cube.height) for x in range(cube.width)]
    k = data.draw(st.integers(1, len(pix)))
    region = data.draw(st.permutations(pix)).copy()[:k]
    cd, med = region_seeds(m, region)
    _, anti = region_seeds(m, region, ANTI)
    assert cd[med[0]] == min(cd.values())
    assert cd[anti[0]] == max(cd.values())


# ---------------------------------------------------------------------------
# Shared class orderings

def _random_partition(rng, h, w):
    """Dense labels mixing multi-pixel classes with a few singletons."""
    raw = rng.integers(0, 4, size=h * w)
    singles = rng.choice(h * w, size=min(3, h * w), replace=False)
    raw[singles] = 100 + np.arange(len(singles))
    return relabel_dense(raw.reshape(h, w))


def _assert_matches_reference(cube, flat, metric, order):
    classes, keys = reference_orderings(cube, metric.kind, flat, order is ANTI)
    got = order_classes(flat, metric, order)
    assert got.order is order
    assert got.offsets.tolist() == np.cumsum([0] + [len(c) for c in classes]).tolist()
    for c, ref in enumerate(classes):
        assert got.pixels[got.offsets[c]:got.offsets[c + 1]].tolist() == ref.tolist()
    yielded = []
    for c, pts, key in class_orderings(flat, metric, order):
        yielded.append(c)
        assert pts.tolist() == np.flatnonzero(flat.labels.ravel() == c).tolist()
        assert key.tobytes() == keys[c].tobytes()
    # every class of two or more pixels once; one-pixel classes are not yielded
    assert sorted(yielded) == [c for c, ref in enumerate(classes) if len(ref) > 1]


# (distinct spectra U, pixels K) per class: U at 1, 7, 8, 9, 128 and 129 with
# repeats, one class of distinct spectra above the size gate (U = K), and one
# small class below it.
_REPEAT_CLASSES = ((1, 64), (7, 70), (8, 64), (9, 90), (128, 256), (129, 300),
                   (80, 80), (3, 10))


def _repeated_spectra_cube(rng, bands):
    """Interleaved classes of _REPEAT_CLASSES plus singletons, as (cube, flat).

    Each class draws its own U spectra, every one used at least once.
    """
    spectra, owner = [], []
    for c, (u, k) in enumerate(_REPEAT_CLASSES):
        uniq = rng.uniform(0.1, 1.0, size=(u, bands))
        spectra.append(uniq[rng.permutation(np.concatenate([np.arange(u),
                                                            rng.integers(0, u, k - u)]))])
        owner += [c] * k
    n = len(owner)
    pad = -n % 24
    spectra.append(rng.uniform(0.1, 1.0, size=(pad, bands)))
    owner += list(range(len(_REPEAT_CLASSES), len(_REPEAT_CLASSES) + pad))
    spectra, owner = np.concatenate(spectra), np.array(owner)
    # scatter the pixels so that classes interleave in raster order
    place = rng.permutation(n + pad)
    data, labels = np.empty_like(spectra), np.empty_like(owner)
    data[place], labels[place] = spectra, owner
    h, w = 24, (n + pad) // 24
    return SpectralCube(data.reshape(h, w, bands)), relabel_dense(labels.reshape(h, w))


@pytest.mark.parametrize("order", list(SeedOrder))
def test_order_classes_matches_per_class_reference(order):
    rng = np.random.default_rng(41)
    for _ in range(40):
        h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        # quantized levels repeat spectra, so cumulative distances tie exactly
        cube = SpectralCube(rng.choice([0.0, 0.5, 1.0], size=(h, w, 2)))
        metric = build_metric(cube, MetricKind.EUCLIDEAN)
        flat = _random_partition(rng, h, w)
        _assert_matches_reference(cube, flat, metric, order)
    # classes above the size gate, where repeated spectra share one distance
    # row; band counts at the block edges of numpy's pairwise sum
    for bands in (1, 7, 8, 9, 33, 128, 129):
        cube, flat = _repeated_spectra_cube(rng, bands)
        for kind in MetricKind:
            _assert_matches_reference(cube, flat, build_metric(cube, kind), order)


def _small_classes_cube(rng, bands, per_size=3, width=64):
    """per_size classes of every size below the gate plus singletons, as (cube, flat).

    Each class is a run of raster pixels, in a shuffled class order, and a
    fifth of all pixels then trade places, so classes interleave. The first
    two pixels of a class share a spectrum: their keys tie exactly.
    """
    sizes = np.repeat(np.arange(2, seeds._COLLAPSE_MIN_PIXELS), per_size)
    sizes = np.concatenate([sizes, np.ones(300, dtype=int)])
    rng.shuffle(sizes)
    n = sizes.sum() + -sizes.sum() % width
    sizes = np.concatenate([sizes, np.ones(n - sizes.sum(), dtype=int)])
    owner = np.repeat(np.arange(len(sizes)), sizes)
    data = rng.uniform(0.1, 1.0, size=(n, bands))
    starts = np.cumsum(sizes) - sizes
    data[starts[sizes > 1] + 1] = data[starts[sizes > 1]]
    moved = rng.choice(n, size=n // 5, replace=False)
    owner[moved], data[moved] = owner[moved[::-1]], data[moved[::-1]]
    h = n // width
    return (SpectralCube(data.reshape(h, width, bands)),
            relabel_dense(owner.reshape(h, width)))


@pytest.mark.parametrize("bands", [1, 7, 8, 9, 33, 128, 129])
def test_size_batches_match_per_class_reference(bands, monkeypatch):
    blocks = []
    kernel = seeds.pair_distances
    monkeypatch.setattr(seeds, "pair_distances",
                        lambda m, p: blocks.append(p.shape) or kernel(m, p))
    cube, flat = _small_classes_cube(np.random.default_rng(bands), bands)
    for kind in MetricKind:
        metric = build_metric(cube, kind)
        for order in SeedOrder:
            _assert_matches_reference(cube, flat, metric, order)
    # every size below the gate, in blocks under the budget; from 7 bands on
    # the largest classes take a block each
    gate = seeds._COLLAPSE_MIN_PIXELS
    assert {k for _, k in blocks} == set(range(2, gate))
    assert all(n == 1 or n * k * k * bands * 8 <= seeds._BLOCK_BYTES for n, k in blocks)
    assert (max(n for n, k in blocks if k == gate - 1) == 1) == (bands >= 7)


def test_block_budget_and_gate_do_not_change_keys_or_labels(monkeypatch):
    cube, flat = _small_classes_cube(np.random.default_rng(9), 8)
    metric = build_metric(cube, MetricKind.EUCLIDEAN)

    def run():
        ordering = order_classes(flat, metric, ANTI)
        keys = {c: k.tobytes() for c, _, k in class_orderings(flat, metric, ANTI)}
        eta = eta_bounded_regions(cube, metric, flat, EtaParams(0.8, ANTI), ordering=ordering)
        mu = mu_geodesic_balls(cube, metric, flat, MuParams(1.5, ANTI), ordering=ordering)
        assert flat.count < eta.count < flat.labels.size
        assert flat.count < mu.count < flat.labels.size
        return ordering.pixels.tolist(), keys, eta.labels.tolist(), mu.labels.tolist()

    batched = run()
    # one class per block
    monkeypatch.setattr(seeds, "_BLOCK_BYTES", 1)
    assert run() == batched
    # no batches at all: every class through _cumdist and per-seed accept rows
    monkeypatch.setattr(seeds, "_COLLAPSE_MIN_PIXELS", 2)
    assert run() == batched


def test_small_class_batches_keep_a_bounded_peak():
    # 1000 classes of 63 pixels at 64 bands: one unbatched (classes, K, K,
    # bands) block would take 2 GB; a batch of one class takes 2 MB. The eta
    # pass reads these classes one seed row at a time, without any block.
    rng = np.random.default_rng(0)
    cube = SpectralCube(rng.uniform(0.1, 1.0, size=(63, 1000, 64)))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    flat = LabelMap(np.tile(np.arange(1000), (63, 1)))
    edge_weights = build_edge_weights(metric)
    tracemalloc.start()
    try:
        ordering = order_classes(flat, metric, SeedOrder.MEDIAN_FIRST)
        order_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out = eta_bounded_regions(cube, metric, flat, EtaParams(1e18),
                                  edge_weights=edge_weights, ordering=ordering)
        eta_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.count == 1000
    assert order_peak < 8 << 20
    assert eta_peak < 3 << 20


def test_repeated_spectra_take_one_distance_row_each(monkeypatch):
    rows = []
    norms = seeds._norms
    monkeypatch.setattr(seeds, "_norms", lambda d: rows.append(len(d)) or norms(d))
    rng = np.random.default_rng(8)
    gate = seeds._COLLAPSE_MIN_PIXELS
    # class 0: 4 * gate pixels holding 3 spectra; class 1: gate distinct spectra
    three = rng.uniform(0.1, 1.0, size=(3, 4))
    data = np.concatenate([three[np.arange(4 * gate) % 3],
                           rng.uniform(0.1, 1.0, size=(gate, 4))])
    cube = SpectralCube(data.reshape(5, gate, 4))
    flat = relabel_dense(np.repeat([0, 1], [4 * gate, gate]).reshape(5, gate))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    got = list(class_orderings(flat, metric, SeedOrder.MEDIAN_FIRST))
    assert rows == [3] * 3 + [gate] * gate
    _, keys = reference_orderings(cube, MetricKind.EUCLIDEAN, flat)
    assert [k.tobytes() for _, _, k in got] == [k.tobytes() for k in keys]


def test_singleton_classes_skip_the_kernel(monkeypatch):
    calls = []
    for name in ("pair_distances", "_cumdist"):
        kernel = getattr(seeds, name)
        monkeypatch.setattr(seeds, name, lambda m, p, name=name, kernel=kernel:
                            calls.append((name, p.shape)) or kernel(m, p))
    cube = SpectralCube(np.arange(6, dtype=float).reshape(2, 3, 1))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    flat = relabel_dense(np.array([[0, 0, 1], [2, 0, 3]]))
    got = order_classes(flat, metric, SeedOrder.MEDIAN_FIRST)
    # one block for the one class of three pixels, none for the singletons
    assert calls == [("pair_distances", (1, 3))]
    # class 0 holds values 0, 1, 4 (cumdists 5, 4, 7): median first
    classes = [got.pixels[a:b].tolist() for a, b in zip(got.offsets[:-1], got.offsets[1:])]
    assert classes == [[1, 0, 4], [2], [3], [5]]


def test_region_cap_checked_before_any_kernel_call(monkeypatch):
    calls = []
    for name in ("pair_distances", "_cumdist"):
        monkeypatch.setattr(seeds, name, lambda m, p: calls.append(len(p)))
    cube = SpectralCube(np.arange(8, dtype=float).reshape(2, 4, 1))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    # class 0 (two pixels) is under the cap; class 1 (six pixels) is over it
    flat = relabel_dense(np.array([[0, 0, 1, 1], [1, 1, 1, 1]]))
    with pytest.raises(RegionSizeCapError, match="class 1 has 6 pixels"):
        order_classes(flat, metric, SeedOrder.MEDIAN_FIRST, max_region_size=4)
    with pytest.raises(RegionSizeCapError, match="class 1 has 6 pixels"):
        eta_bounded_regions(cube, metric, flat, EtaParams(1.0), max_region_size=4)
    with pytest.raises(RegionSizeCapError, match="class 1 has 6 pixels"):
        mu_geodesic_balls(cube, metric, flat, MuParams(1.0), max_region_size=4)
    assert calls == []


def test_passes_reuse_a_matching_ordering_only():
    rng = np.random.default_rng(5)
    cube = SpectralCube(rng.choice([0.0, 0.5, 1.0], size=(6, 5, 2)))
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    flat = lambda_flat_zones(cube, LambdaParams(metric, 0.6))
    med = order_classes(flat, metric, SeedOrder.MEDIAN_FIRST)
    for value in (0.0, 0.5, 2.0):
        fresh = eta_bounded_regions(cube, metric, flat, EtaParams(value))
        shared = eta_bounded_regions(cube, metric, flat, EtaParams(value), ordering=med)
        assert np.array_equal(fresh.labels, shared.labels)
        fresh = mu_geodesic_balls(cube, metric, flat, MuParams(value))
        shared = mu_geodesic_balls(cube, metric, flat, MuParams(value), ordering=med)
        assert np.array_equal(fresh.labels, shared.labels)
    anti = SeedOrder.ANTIMEDIAN_FIRST
    with pytest.raises(ValueError, match="median-first"):
        eta_bounded_regions(cube, metric, flat, EtaParams(1.0, anti), ordering=med)
    with pytest.raises(ValueError, match="median-first"):
        mu_geodesic_balls(cube, metric, flat, MuParams(1.0, anti), ordering=med)
    other = lambda_flat_zones(cube, LambdaParams(metric, 0.0))
    with pytest.raises(ValueError, match="flat partition"):
        eta_bounded_regions(cube, metric, other, EtaParams(1.0), ordering=med)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsseg import (Connectivity, DegenerateMarginalError, MetricKind,
                   SpectralCube, build_edge_weights, build_metric)
from hsseg import metrics

from conftest import cubes, distance_row, library_distance, positive_cubes
from oracles import _OFFSETS, coordinates, distance, neighbors


def two_pixel_cube():
    # one row, two pixels, spectra (1,3) and (2,2)
    return SpectralCube(np.array([[[1.0, 3.0], [2.0, 2.0]]]))


def test_euclidean_three_four_five():
    cube = SpectralCube(np.array([[[0.0, 0.0], [3.0, 4.0]]]))
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    assert library_distance(m, (0, 0), (1, 0)) == 5.0
    assert library_distance(m, (0, 0), (0, 0)) == 0.0


def test_chi_squared_matches_term_by_term_formula():
    # independent scalar evaluation of the marginal-normalized formula
    cube = two_pixel_cube()
    data = cube.data
    band_sums = [data[:, :, j].sum() for j in range(2)]
    pixel_sums = [data[0, i, :].sum() for i in range(2)]
    total = sum(band_sums)
    acc = 0.0
    for j in range(2):
        term = data[0, 0, j] / pixel_sums[0] - data[0, 1, j] / pixel_sums[1]
        acc += (total / band_sums[j]) * term * term
    expected = math.sqrt(acc)

    m = build_metric(cube, MetricKind.CHI_SQUARED)
    got = library_distance(m, (0, 0), (1, 0))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(2.0 / math.sqrt(15.0), abs=1e-12)


def test_chi_squared_rejects_zero_pixel_sum():
    cube = SpectralCube(np.array([[[0.0, 0.0], [1.0, 2.0]]]))
    with pytest.raises(DegenerateMarginalError, match=r"x=0, y=0"):
        build_metric(cube, MetricKind.CHI_SQUARED)


def test_chi_squared_rejects_zero_band_sum():
    cube = SpectralCube(np.array([[[1.0, 0.0], [1.0, 0.0]]]))
    with pytest.raises(DegenerateMarginalError, match=r"band 1"):
        build_metric(cube, MetricKind.CHI_SQUARED)


def test_chi_squared_rejects_sums_beyond_float64():
    # finite samples whose total overflows would give NaN coordinates; a
    # warning raised here fails the suite, so none escapes either
    data = np.ones((2, 2, 2))
    data[0, 0] = data[1, 1] = 1e308
    with pytest.raises(DegenerateMarginalError,
                       match=r"scale of band 0 overflows float64: total inf, band sum inf"):
        build_metric(SpectralCube(data), MetricKind.CHI_SQUARED)
    # a finite total, but a band sum so small that its scale overflows
    data = np.ones((2, 2, 2))
    data[:, :, 1] = 5e-324
    data[0, 0, 0] = 1e308
    with pytest.raises(DegenerateMarginalError,
                       match=r"scale of band 1 overflows float64: total 1e\+308, band sum 2e-323"):
        build_metric(SpectralCube(data), MetricKind.CHI_SQUARED)


def test_build_metric_returns_the_coordinate_cube():
    cube = two_pixel_cube()
    assert build_metric(cube, MetricKind.EUCLIDEAN) is cube
    chi = build_metric(cube, MetricKind.CHI_SQUARED)
    assert isinstance(chi, SpectralCube) and chi.data.shape == cube.data.shape
    assert not chi.data.flags.writeable and not chi.spectra.flags.writeable
    assert chi.spectra.base is chi.data and chi.spectra.shape == (2, 2)
    # the kind is the enum, not its value
    with pytest.raises(ValueError, match="unknown metric kind: 'euclidean'"):
        build_metric(cube, "euclidean")


def test_chi_squared_rejects_negative_values():
    cube = SpectralCube(np.array([[[1.0, -0.5], [1.0, 2.0]]]))
    with pytest.raises(ValueError, match="non-negative"):
        build_metric(cube, MetricKind.CHI_SQUARED)


def _pixels_of(cube):
    return [(x, y) for y in range(cube.height) for x in range(cube.width)]


@given(positive_cubes(max_side=4), st.data())
@settings(max_examples=80)
def test_metric_axioms(cube, data):
    pix = _pixels_of(cube)
    p = data.draw(st.sampled_from(pix))
    q = data.draw(st.sampled_from(pix))
    r = data.draw(st.sampled_from(pix))
    for kind in (MetricKind.EUCLIDEAN, MetricKind.CHI_SQUARED):
        m = build_metric(cube, kind)
        dpq = library_distance(m, p, q)
        assert dpq >= 0.0
        assert library_distance(m, q, p) == dpq  # sign flip is exact in IEEE
        assert library_distance(m, p, p) == 0.0
        assert dpq <= library_distance(m, p, r) + library_distance(m, r, q) + 1e-9


def test_chi_squared_identity_on_proportional_profiles():
    # scaling a spectrum leaves its normalized profile unchanged
    cube = SpectralCube(np.array([[[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]]))
    m = build_metric(cube, MetricKind.CHI_SQUARED)
    assert library_distance(m, (0, 0), (1, 0)) <= 1e-9


@given(positive_cubes(max_side=5))
@settings(max_examples=60)
def test_chi_squared_equals_scaled_profile_rederivation(cube):
    # recompute marginals and profiles from scratch (no cached context)
    data = cube.data
    h, w, nb = data.shape
    band_sums = data.reshape(-1, nb).sum(axis=0)
    total = band_sums.sum()
    scale = np.sqrt(total / band_sums)
    m = build_metric(cube, MetricKind.CHI_SQUARED)
    pts = np.arange(w * h)
    for y in range(h):
        for x in range(w):
            row = distance_row(m, y * w + x, pts)
            for y2 in range(h):
                for x2 in range(w):
                    prof_a = data[y, x] / data[y, x].sum()
                    prof_b = data[y2, x2] / data[y2, x2].sum()
                    expected = math.sqrt((((prof_a - prof_b) * scale) ** 2).sum())
                    assert row[y2 * w + x2] == pytest.approx(expected, abs=1e-9)


@given(cubes(max_side=5), st.data())
@settings(max_examples=60)
def test_vectorized_distances_match_scalar_exactly(cube, data):
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    coords = coordinates(cube, MetricKind.EUCLIDEAN)
    pix = _pixels_of(cube)
    x, y = p = data.draw(st.sampled_from(pix))
    vec = distance_row(m, y * cube.width + x, np.arange(m.pixel_count))
    for k, q in enumerate(pix):
        assert vec[k] == distance(coords, p, q)


@given(cubes(max_side=5))
@settings(max_examples=60)
def test_edge_weights_match_scalar_distance_exactly(cube):
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    w, h = cube.width, cube.height
    for conn in (Connectivity.FOUR, Connectivity.EIGHT):
        ew = build_edge_weights(m, conn)
        assert ew.neighbors.shape == ew.weights.shape == (w * h, len(_OFFSETS[conn.value]))
        assert ew.neighbors.dtype == np.int32
        for y in range(h):
            for x in range(w):
                i = y * w + x
                row = ew.neighbors[i].tolist()
                # canonical order, -1 in the slot of every offset off the grid
                assert row == [(y + dy) * w + x + dx if 0 <= x + dx < w and 0 <= y + dy < h
                               else -1 for dx, dy in _OFFSETS[conn.value]]
                assert [j for j in row if j >= 0] == [
                    ny * w + nx for nx, ny in neighbors((x, y), conn, w, h)]
                for k, j in enumerate(row):
                    got = ew.weights[i, k]
                    if j < 0:
                        assert got == np.inf
                        continue
                    # bitwise the scalar distance, and the same in both directions
                    assert got == library_distance(m, (x, y), (j % w, j // w))
                    assert got == ew.weights[j][ew.neighbors[j] == i][0]


def test_edge_weights_keep_bits_with_many_bands():
    # numpy's pairwise sum switches at 8 terms and works in blocks of 128
    rng = np.random.default_rng(3)
    for bands in (8, 9, 33, 129):
        cube = SpectralCube(rng.uniform(0, 1, size=(3, 4, bands)))
        for kind in MetricKind:
            m = build_metric(cube, kind)
            ew = build_edge_weights(m, Connectivity.EIGHT)
            for i, row in enumerate(ew.neighbors.tolist()):
                pts = np.array([j for j in row if j >= 0])
                assert ew.weights[i][ew.neighbors[i] >= 0].tobytes() == \
                    distance_row(m, i, pts).tobytes()


@pytest.mark.parametrize("bands", [1, 8, 9, 64, 129])
def test_edge_weights_do_not_depend_on_the_block_budget(bands, monkeypatch):
    # a budget of 1 byte gives one row per block, 1 << 40 the whole grid in one
    rng = np.random.default_rng(bands)
    cube = SpectralCube(rng.uniform(0, 1, size=(9, 14, bands)))
    for kind in MetricKind:
        m = build_metric(cube, kind)
        for conn in Connectivity:
            tables = set()
            for budget in (1, 5000, metrics._BLOCK_BYTES, 1 << 40):
                monkeypatch.setattr(metrics, "_BLOCK_BYTES", budget)
                ew = build_edge_weights(m, conn)
                tables.add((ew.neighbors.tobytes(), ew.weights.tobytes()))
            monkeypatch.undo()
            assert len(tables) == 1


def test_edge_weight_build_keeps_a_bounded_peak():
    # at 129 bands and 8-connectivity a block of 1 024 rows held 8.5 MB of
    # differences; a block of _BLOCK_BYTES holds 31 rows. Beyond the table the
    # build keeps at most the block being filled and the one before it.
    rng = np.random.default_rng(4)
    m = build_metric(SpectralCube(rng.uniform(0, 1, size=(48, 48, 129))), MetricKind.EUCLIDEAN)
    tracemalloc.start()
    try:
        ew = build_edge_weights(m, Connectivity.EIGHT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - ew.weights.nbytes - ew.neighbors.nbytes <= 3 * metrics._BLOCK_BYTES
    assert peak < 1024 * 8 * 129 * 8


def test_edge_weight_bounds_on_known_cube():
    cube = SpectralCube(np.array([[[0.0], [3.0]], [[4.0], [0.0]]]))
    m = build_metric(cube, MetricKind.EUCLIDEAN)
    ew = build_edge_weights(m, Connectivity.FOUR)
    inf = np.inf
    # rows are pixels in raster order, columns N, S, W, E
    assert ew.neighbors.tolist() == [[-1, 2, -1, 1], [-1, 3, 0, -1],
                                     [0, -1, -1, 3], [1, -1, 2, -1]]
    assert ew.weights.tolist() == [[inf, 4.0, inf, 3.0], [inf, 3.0, 3.0, inf],
                                   [4.0, inf, inf, 4.0], [3.0, inf, 4.0, inf]]
    assert ew.total_weight() == 3.0 + 4.0 + 4.0 + 3.0

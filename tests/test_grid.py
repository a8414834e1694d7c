import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsseg import Connectivity, LabelMap, SpectralCube, relabel_dense

from oracles import classes_are_connected, is_refinement, neighbors


def test_neighbors_interior_four():
    got = neighbors((5, 5), Connectivity.FOUR, 21, 21)
    assert set(got) == {(5, 4), (5, 6), (4, 5), (6, 5)}
    # canonical order: N, S, W, E
    assert got == [(5, 4), (5, 6), (4, 5), (6, 5)]


def test_neighbors_corner_clipping():
    assert set(neighbors((0, 0), Connectivity.FOUR, 4, 4)) == {(0, 1), (1, 0)}
    assert set(neighbors((0, 0), Connectivity.EIGHT, 4, 4)) == {(0, 1), (1, 0), (1, 1)}


def test_neighbors_interior_eight_order():
    got = neighbors((1, 1), Connectivity.EIGHT, 3, 3)
    assert got == [(1, 0), (1, 2), (0, 1), (2, 1), (0, 0), (2, 0), (0, 2), (2, 2)]


def test_neighbors_out_of_bounds():
    with pytest.raises(ValueError):
        neighbors((4, 0), Connectivity.FOUR, 4, 4)
    with pytest.raises(ValueError):
        neighbors((0, -1), Connectivity.FOUR, 4, 4)


def test_cube_rejects_nonfinite_and_bad_shape():
    with pytest.raises(ValueError):
        SpectralCube(np.array([[[np.nan]]]))
    with pytest.raises(ValueError):
        SpectralCube(np.array([[[np.inf]]]))
    with pytest.raises(ValueError):
        SpectralCube(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        SpectralCube(np.zeros((0, 2, 1)))


def test_cube_is_immutable():
    cube = SpectralCube(np.zeros((2, 2, 1)))
    with pytest.raises(ValueError):
        cube.data[0, 0, 0] = 1.0


def test_labelmap_requires_dense_labels():
    LabelMap(np.array([[0, 1], [1, 2]]))
    with pytest.raises(ValueError):
        LabelMap(np.array([[0, 2], [2, 2]]))  # label 1 missing
    with pytest.raises(ValueError):
        LabelMap(np.array([[1, 1], [1, 1]]))  # does not start at 0
    with pytest.raises(ValueError):
        LabelMap(np.array([[0, -1], [0, 0]]))
    with pytest.raises(ValueError):
        LabelMap(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        LabelMap(np.array([[0, 1]]), count=3)


def test_labels_must_be_a_non_empty_grid():
    for labels in (np.zeros(3, int), np.zeros((1, 2, 1), int)):
        with pytest.raises(ValueError, match=r"labels must be 2-d \(height, width\), got shape "
                                             + re.escape(str(labels.shape))):
            LabelMap(labels)
    for shape in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match=r"label dimensions must be positive, got shape "
                                             + re.escape(str(shape))):
            LabelMap(np.zeros(shape, int))
    with pytest.raises(ValueError, match=r"provisional labels must be 2-d, got shape \(3,\)"):
        relabel_dense(np.array([3, 3, 1]))


def test_labelmap_density_check_is_bounded_by_the_map():
    # a label far above the pixel count is rejected before any per-label array
    with pytest.raises(ValueError, match="must be dense"):
        LabelMap(np.array([[0, 2**62]]))
    with pytest.raises(ValueError, match="must be dense"):
        LabelMap(np.array([[0, 2]]))
    assert LabelMap(np.array([[0, 1], [2, 0]], dtype=np.uint64)).count == 3
    with pytest.raises(ValueError, match="declared count 3 does not match 2 used labels"):
        LabelMap(np.array([[0, 1]]), count=3)


def test_relabel_dense_first_appearance():
    out = relabel_dense(np.array([[7, 7, 3]]))
    assert out.labels.tolist() == [[0, 0, 1]]
    assert out.count == 2


def test_relabel_dense_uniform_and_distinct():
    assert relabel_dense(np.full((3, 4), 9)).count == 1
    distinct = relabel_dense(np.arange(12).reshape(3, 4)[::-1])
    assert distinct.count == 12
    # first-appearance order means the top-left pixel always gets label 0
    assert distinct.labels[0, 0] == 0


@given(st.lists(st.integers(0, 6), min_size=6, max_size=6))
def test_relabel_dense_idempotent_and_class_preserving(values):
    raw = np.array(values).reshape(2, 3)
    once = relabel_dense(raw)
    twice = relabel_dense(once.labels)
    assert np.array_equal(once.labels, twice.labels)
    # classes unchanged, only names
    for v in set(values):
        mask = raw == v
        assert len(set(once.labels[mask].tolist())) == 1


def test_is_refinement_examples():
    singletons = relabel_dense(np.arange(6).reshape(2, 3))
    coarse = LabelMap(np.array([[0, 0, 1], [0, 1, 1]]))
    assert is_refinement(singletons, coarse)
    assert is_refinement(coarse, coarse)
    spanning = LabelMap(np.array([[0, 0, 0], [0, 0, 0]]))
    assert is_refinement(coarse, spanning)
    assert not is_refinement(spanning, coarse)


def test_is_refinement_dimension_mismatch():
    a = LabelMap(np.zeros((2, 2), dtype=int))
    b = LabelMap(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        is_refinement(a, b)


def _random_partition_chain(draw_ints):
    """Build maps A <= B <= C by merging label classes step by step."""
    a = relabel_dense(np.array(draw_ints[:12]).reshape(3, 4))
    merge1 = [v % max(1, a.count - 1) for v in draw_ints[12:12 + a.count]]
    b = relabel_dense(np.array(merge1)[a.labels])
    merge2 = [v % max(1, b.count - 1) for v in draw_ints[12 + a.count:12 + a.count + b.count]]
    c = relabel_dense(np.array(merge2)[b.labels])
    return a, b, c


@given(st.lists(st.integers(0, 11), min_size=40, max_size=40))
@settings(max_examples=60)
def test_is_refinement_partial_order(ints):
    a, b, c = _random_partition_chain(ints)
    # reflexive
    assert is_refinement(a, a)
    # transitive along the constructed chain
    assert is_refinement(a, b) and is_refinement(b, c)
    assert is_refinement(a, c)
    # antisymmetric up to relabeling
    if is_refinement(b, a):
        pairs = set(zip(a.labels.ravel().tolist(), b.labels.ravel().tolist()))
        assert len(pairs) == a.count == b.count


def test_region_sizes_counts_pixels():
    m = LabelMap(np.array([[0, 0, 1], [2, 1, 1]]))
    assert m.sizes.tolist() == [2, 3, 1]
    with pytest.raises(ValueError, match="read-only"):
        m.sizes[0] = 5


def test_classes_are_connected():
    connected = LabelMap(np.array([[0, 0, 1], [1, 1, 1]]))
    assert classes_are_connected(connected, Connectivity.FOUR)
    split = LabelMap(np.array([[0, 1, 0], [1, 1, 1]]))
    assert not classes_are_connected(split, Connectivity.FOUR)
    # the diagonal pair is connected only under eight-adjacency
    diagonal = LabelMap(np.array([[0, 1], [1, 0]]))
    assert not classes_are_connected(diagonal, Connectivity.FOUR)
    assert classes_are_connected(diagonal, Connectivity.EIGHT)

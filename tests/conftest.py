import numpy as np
import pytest
from hypothesis import strategies as st

from hsseg import (LabelMap, MetricKind, SeedOrder, SpectralCube, build_metric,
                   order_classes)
from hsseg.seeds import DEFAULT_REGION_CAP, class_orderings

from oracles import PixelIndex

# Quantized value levels give repeated spectra, so flat zones and ties with
# zero-weight edges actually occur in the random data.
LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
POSITIVE_LEVELS = (0.25, 0.5, 0.75, 1.0)


@st.composite
def cubes(draw, max_side=7, max_bands=3, levels=LEVELS):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    b = draw(st.integers(1, max_bands))
    values = draw(st.lists(st.sampled_from(levels),
                           min_size=w * h * b, max_size=w * h * b))
    return SpectralCube(np.array(values).reshape(h, w, b))


@st.composite
def positive_cubes(draw, max_side=7, max_bands=3):
    return draw(cubes(max_side=max_side, max_bands=max_bands,
                      levels=POSITIVE_LEVELS))


def random_cube(rng, max_side, max_bands, positive=False):
    w = int(rng.integers(2, max_side + 1))
    h = int(rng.integers(2, max_side + 1))
    b = int(rng.integers(1, max_bands + 1))
    levels = np.array(POSITIVE_LEVELS if positive else LEVELS)
    return SpectralCube(rng.choice(levels, size=(h, w, b)))


def region_seeds(metric, region, order=SeedOrder.MEDIAN_FIRST,
                 max_region_size=DEFAULT_REGION_CAP):
    """Sort keys and seed order of a region, through the array seed API.

    The region becomes class 0 of a two-class partition (the rest of the
    grid is class 1). Keys come from class_orderings and are negated for
    ANTIMEDIAN_FIRST; a one-pixel region is not yielded and has key 0.0.
    Seeds come from order_classes.
    """
    w = metric.width
    labels = np.ones((metric.height, w), dtype=np.int32)
    for x, y in region:
        labels[y, x] = 0
    flat = LabelMap(labels)
    key = {PixelIndex(*p): 0.0 for p in region}
    for c, pts, keys in class_orderings(flat, metric, order, max_region_size):
        if c == 0:
            key = {PixelIndex(i % w, i // w): float(k) for i, k in zip(pts.tolist(), keys)}
    ordering = order_classes(flat, metric, order, max_region_size)
    first = ordering.pixels[:ordering.offsets[1]]
    return key, [PixelIndex(i % w, i // w) for i in first.tolist()]


def library_distance(metric, p, q):
    """The library's distance between pixels p and q, given as (x, y)."""
    w = metric.width
    return float(metric.distances_flat(p[1] * w + p[0], np.array([q[1] * w + q[0]]))[0])


def metric_for(cube, kind):
    return build_metric(cube, kind)


@pytest.fixture
def tooth_setup():
    from hsseg import tooth_saw_cube

    cube = tooth_saw_cube()
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    return cube, metric

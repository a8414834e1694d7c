"""Class-wide cumulative-distance ordering and median / anti-median seeds.

For a flat-zone class C, the cumulative distance of p is the sum of
spectral distances from p to every member of C. Sorting the class ascending
by that quantity puts the vectorial median first; the reverse order starts
at the anti-median, and ties break on ascending raster index. Both
refinement passes walk that one sequence and skip pixels an earlier region
already took, so later seeds are medians of the original class ordering,
not of the unassigned remainder. The ordering depends only on the flat
partition, the metric and the seed order, so `order_classes` computes it
once for all classes, and both passes and any number of parameter values
share that one `ClassOrdering`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RegionSizeCapError
from .grid import LabelMap
from .metrics import SpectralMetric, _norms

DEFAULT_REGION_CAP = 50_000


class SeedOrder(Enum):
    MEDIAN_FIRST = "median"
    ANTIMEDIAN_FIRST = "antimedian"


# A class of at least _COLLAPSE_MIN_PIXELS pixels gets one distance row per
# distinct spectrum. Below the gate np.unique costs more than the rows it saves.
_COLLAPSE_MIN_PIXELS = 64


def _cumdist(metric: SpectralMetric, pts_flat: np.ndarray) -> np.ndarray:
    """Exact O(K^2) cumulative distances for the pixels in pts_flat.

    Pixels with equal spectra have equal rows, and a row gathered from the
    distances to the distinct spectra (`row[inverse]`) holds the same K terms
    in the same raster order, so its sum has the same bits as the per-pixel
    row's. Classes of at least _COLLAPSE_MIN_PIXELS pixels compute one row per
    distinct spectrum; smaller classes one row per pixel.
    """
    coords = metric.coords_flat[pts_flat]
    k = len(pts_flat)
    if k >= _COLLAPSE_MIN_PIXELS:
        uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
        inverse = inverse.ravel()  # numpy 2.0.0 returns it as (k, 1)
        sums = np.array([_norms(uniq - u)[inverse].sum() for u in uniq])
        return sums[inverse]
    return np.array([_norms(coords - c).sum() for c in coords])


_SINGLETON_KEY = np.zeros(1)
_SINGLETON_KEY.flags.writeable = False


def class_orderings(flat: LabelMap, metric: SpectralMetric, order: SeedOrder,
                    max_region_size: int = DEFAULT_REGION_CAP):
    """Yield (label, class_pixels_flat, keys) per class of a partition.

    One stable argsort of the labels groups the pixels, so each class comes
    out in raster order. keys are the cumulative distances, negated for
    ANTIMEDIAN_FIRST, so ascending keys with raster tie breaks give the seed
    order. Every class is checked against the cap before any cumulative
    distance is computed; a one-pixel class gets 0.0 without the kernel.
    """
    lab = flat.labels.ravel()
    grouped = np.argsort(lab, kind="stable")
    sizes = np.bincount(lab, minlength=flat.count)
    over = np.flatnonzero(sizes > max_region_size)
    if len(over):
        c = int(over[0])
        raise RegionSizeCapError(
            f"class {c} has {sizes[c]} pixels, above the cap of {max_region_size}"
        )
    sign = 1.0 if order is SeedOrder.MEDIAN_FIRST else -1.0
    start = 0
    for c, size in enumerate(sizes):
        pts = grouped[start:start + size]
        yield c, pts, _SINGLETON_KEY if size == 1 else sign * _cumdist(metric, pts)
        start += size


@dataclass(frozen=True, eq=False)
class ClassOrdering:
    """Seed sequence of every class of one flat partition, as flat arrays.

    pixels holds each raster index once, grouped by class label and in seed
    order within a class: class c is pixels[offsets[c]:offsets[c + 1]]. It
    depends only on the partition, the metric and the seed order, so one
    instance serves both passes and every parameter value.
    """

    order: SeedOrder
    pixels: np.ndarray
    offsets: np.ndarray

    def classes(self):
        """Yield each class's pixels in seed order."""
        for start, end in zip(self.offsets[:-1], self.offsets[1:]):
            yield self.pixels[start:end]


def order_classes(flat: LabelMap, metric: SpectralMetric, order: SeedOrder,
                  max_region_size: int = DEFAULT_REGION_CAP) -> ClassOrdering:
    """Seed sequence of every class, from one pass over class_orderings.

    One lexsort over (label, key, raster index) orders all classes at once;
    ties in cumulative distance break on ascending raster index.
    """
    n = flat.labels.size
    pixels = np.empty(n, dtype=np.intp)
    keys = np.empty(n)
    offsets = np.zeros(flat.count + 1, dtype=np.intp)
    start = 0
    for c, pts, class_keys in class_orderings(flat, metric, order, max_region_size):
        end = start + len(pts)
        pixels[start:end] = pts
        keys[start:end] = class_keys
        offsets[c + 1] = end
        start = end
    seq = np.lexsort((pixels, keys, flat.labels.ravel()[pixels]))
    return ClassOrdering(order, pixels[seq], offsets)


def resolve_ordering(flat: LabelMap, metric: SpectralMetric, order: SeedOrder,
                     max_region_size: int, ordering: ClassOrdering | None) -> ClassOrdering:
    """The given ordering, checked against flat and order, or a fresh one.

    A given ordering was checked against its own cap when it was built.
    """
    if flat.labels.shape != (metric.height, metric.width):
        raise ValueError("flat partition does not match the metric's grid")
    if ordering is None:
        return order_classes(flat, metric, order, max_region_size)
    if ordering.order is not order:
        raise ValueError(
            f"ordering is {ordering.order.value}-first, params ask for {order.value}-first"
        )
    if len(ordering.offsets) != flat.count + 1 or len(ordering.pixels) != flat.labels.size:
        raise ValueError("ordering does not match the flat partition")
    return ordering

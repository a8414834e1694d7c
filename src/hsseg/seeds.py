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
share that one `ClassOrdering`. A one-pixel class needs no distance at all;
classes below `_COLLAPSE_MIN_PIXELS` are batched by size into one distance
block each, and larger ones take one distance row per distinct spectrum.
Every path gives the keys of the per-pixel row loop, bit for bit.
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
# distinct spectrum. Below the gate np.unique costs more than the rows it saves,
# and classes are batched by size instead.
_COLLAPSE_MIN_PIXELS = 64

# Bytes of the (classes, K, K, bands) difference block of one batch of small
# classes of K pixels; a batch holds at least one class.
_BLOCK_BYTES = 1 << 18


def pair_distances(metric: SpectralMetric, pts: np.ndarray) -> np.ndarray:
    """All distances within each row of pts: (n, k) pixels give (n, k, k).

    [i, a, b] is _norms(c[i, b] - c[i, a]) for c the coordinates of pts, so
    row a holds the terms of _norms(coords - coords[a]) in the same order, and
    its sum and its comparisons keep their bits.
    """
    c = metric.coords_flat[pts]
    return _norms(c[:, None] - c[:, :, None])


def size_batches(sizes: np.ndarray, starts: np.ndarray, pixels: np.ndarray, bands: int):
    """Yield (at, pts) for the classes of 2 to _COLLAPSE_MIN_PIXELS - 1 pixels, by size.

    Class i has sizes[i] pixels from pixels[starts[i]:]. at indexes sizes, and
    row j of pts (n, K) holds the pixels of class at[j]. A batch holds at
    least one class, and as many more as keep its (n, K, K, bands) float64
    difference block under _BLOCK_BYTES.
    """
    for k in range(2, min(int(sizes.max()) + 1, _COLLAPSE_MIN_PIXELS)):
        same = np.flatnonzero(sizes == k)
        batch = max(1, _BLOCK_BYTES // (k * k * bands * 8))
        for b in range(0, len(same), batch):
            at = same[b:b + batch]
            yield at, pixels[starts[at, None] + np.arange(k)]


def _cumdist(metric: SpectralMetric, pts_flat: np.ndarray) -> np.ndarray:
    """Exact O(K^2) cumulative distances for a class of at least the gate.

    Pixels with equal spectra have equal rows, and a row gathered from the
    distances to the distinct spectra (`row[inverse]`) holds the same K terms
    in the same raster order, so its sum has the same bits as the per-pixel
    row's: one row is computed per distinct spectrum.
    """
    coords = metric.coords_flat[pts_flat]
    uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
    inverse = inverse.ravel()  # numpy 2.0.0 returns it as (k, 1)
    sums = np.array([_norms(uniq - u)[inverse].sum() for u in uniq])
    return sums[inverse]


def class_orderings(flat: LabelMap, metric: SpectralMetric, order: SeedOrder,
                    max_region_size: int = DEFAULT_REGION_CAP):
    """Yield (label, class_pixels_flat, keys) per class of two or more pixels.

    One stable argsort of the labels groups the pixels, so each class comes
    out in raster order. keys are the cumulative distances, negated for
    ANTIMEDIAN_FIRST, so ascending keys with raster tie breaks give the seed
    order. Every class is checked against the cap before any distance is
    computed. A one-pixel class has key 0.0 and is not yielded. Classes below
    _COLLAPSE_MIN_PIXELS come first, by size, and each batch of one size takes
    its keys from one pair_distances block; larger classes follow through
    _cumdist. Both give the bits of the per-pixel row loop.
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
    offsets = np.zeros(flat.count + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    for labels, pts in size_batches(sizes, offsets, grouped, metric.bands):
        keys = pair_distances(metric, pts).sum(axis=-1)
        keys *= sign
        yield from zip(labels.tolist(), pts, keys)
    for c in np.flatnonzero(sizes >= _COLLAPSE_MIN_PIXELS).tolist():
        pts = grouped[offsets[c]:offsets[c + 1]]
        yield c, pts, sign * _cumdist(metric, pts)


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

    def runs(self):
        """Yield (singletons, pts) per class of two or more pixels, in class order.

        pts is the class's seed sequence; singletons holds the pixels of the
        one-pixel classes between the previous such class and this one, one
        class each. A last item holds the trailing one-pixel classes and an
        empty pts.
        """
        offsets, done = self.offsets, 0
        for c in np.flatnonzero(np.diff(offsets) > 1):
            start, end = offsets[c], offsets[c + 1]
            yield self.pixels[done:start], self.pixels[start:end]
            done = end
        yield self.pixels[done:], self.pixels[:0]


def order_classes(flat: LabelMap, metric: SpectralMetric, order: SeedOrder,
                  max_region_size: int = DEFAULT_REGION_CAP) -> ClassOrdering:
    """Seed sequence of every class, from one pass over class_orderings.

    The keys go to one raster-indexed buffer, where one-pixel classes keep
    0.0, and one stable lexsort over (label, key) orders all classes at once:
    ties in cumulative distance break on ascending raster index.
    """
    lab = flat.labels.ravel()
    keys = np.zeros(lab.size)
    for _, pts, class_keys in class_orderings(flat, metric, order, max_region_size):
        keys[pts] = class_keys
    pixels = np.lexsort((keys, lab))
    offsets = np.zeros(flat.count + 1, dtype=np.intp)
    np.cumsum(np.bincount(lab, minlength=flat.count), out=offsets[1:])
    return ClassOrdering(order, pixels, offsets)


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

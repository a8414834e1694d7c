"""Class-wide cumulative-distance ordering and median / anti-median seeds.

For a flat-zone class C, the cumulative distance of p is the sum of
spectral distances from p to every member of C. Sorting the class ascending
by that quantity puts the vectorial median first; the reverse order starts
at the anti-median, and ties break on ascending raster index. Both
refinement passes walk that one sequence and skip pixels an earlier region
already took, so later seeds are medians of the original class ordering,
not of the unassigned remainder. The ordering depends only on the flat
partition, the metric and the seed order, so `order_classes` computes it
once for all classes, as one index array, and both passes and any number
of parameter values share it. A one-pixel class needs no distance at all;
classes below `_COLLAPSE_MIN_PIXELS` are batched by size into one distance
block each, and larger ones take one distance row per distinct spectrum.
Every path gives the keys of the per-pixel row loop, bit for bit.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import metrics
from .errors import RegionSizeCapError
from .grid import LabelMap, SpectralCube
from .metrics import _norms

# Largest class the exact O(K^2) ordering accepts; a larger one fails it
# before any distance is computed.
MAX_REGION_SIZE = 50_000


class SeedOrder(Enum):
    """A seed order; its value is the CLI's --seed-order name."""

    MEDIAN_FIRST = "median"
    ANTIMEDIAN_FIRST = "antimedian"


# A class of at least _COLLAPSE_MIN_PIXELS pixels gets one distance row per
# distinct spectrum. Below the gate np.unique costs more than the rows it saves,
# and classes are batched by size instead.
_COLLAPSE_MIN_PIXELS = 64


def pair_distances(metric: SpectralCube, pts: np.ndarray) -> np.ndarray:
    """All distances within each row of pts: (n, k) pixels give (n, k, k).

    [i, a, b] is _norms(c[i, b] - c[i, a]) for c the coordinates of pts, so
    row a holds the terms of _norms(coords - coords[a]) in the same order, and
    its sum and its comparisons keep their bits.
    """
    c = metric.spectra[pts]
    return _norms(c[:, None] - c[:, :, None])


def _cumdist(metric: SpectralCube, pts_flat: np.ndarray) -> np.ndarray:
    """Exact O(K^2) cumulative distances for a class of at least the gate.

    Pixels with equal spectra have equal rows, and a row gathered from the
    distances to the distinct spectra (`row[inverse]`) holds the same K terms
    in the same raster order, so its sum has the same bits as the per-pixel
    row's: one row is computed per distinct spectrum.
    """
    coords = metric.spectra[pts_flat]
    uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
    inverse = inverse.ravel()  # numpy 2.0.0 returns it as (k, 1)
    sums = np.array([_norms(uniq - u)[inverse].sum() for u in uniq])
    return sums[inverse]


def class_orderings(flat: LabelMap, metric: SpectralCube, order: SeedOrder):
    """Yield (label, class_pixels_flat, keys) per class of two or more pixels.

    One stable argsort of the labels groups the pixels, so each class comes
    out in raster order. keys are the cumulative distances, negated for
    ANTIMEDIAN_FIRST, so ascending keys with raster tie breaks give the seed
    order. Every class is checked against MAX_REGION_SIZE, as it stands when
    the generator starts, before any distance is computed. A one-pixel class
    has key 0.0 and is not yielded. Classes below _COLLAPSE_MIN_PIXELS come
    first, by size, and each batch of one size takes its keys from one
    pair_distances block of at most metrics._BLOCK_BYTES, or of one class;
    larger classes follow through _cumdist. Both give the bits of the
    per-pixel row loop.
    """
    lab = flat.labels.ravel()
    grouped = np.argsort(lab, kind="stable")
    sizes = flat.sizes
    over = np.flatnonzero(sizes > MAX_REGION_SIZE)
    if len(over):
        c = int(over[0])
        raise RegionSizeCapError(
            f"class {c} has {sizes[c]} pixels, above the cap of {MAX_REGION_SIZE}"
        )
    sign = 1.0 if order is SeedOrder.MEDIAN_FIRST else -1.0
    offsets = np.zeros(flat.count + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    for k in range(2, min(int(sizes.max()) + 1, _COLLAPSE_MIN_PIXELS)):
        same = np.flatnonzero(sizes == k)
        batch = max(1, metrics._BLOCK_BYTES // (k * k * metric.bands * 8))
        for b in range(0, len(same), batch):
            labels = same[b:b + batch]
            pts = grouped[offsets[labels, None] + np.arange(k)]
            keys = pair_distances(metric, pts).sum(axis=-1)
            keys *= sign
            yield from zip(labels.tolist(), pts, keys)
    for c in np.flatnonzero(sizes >= _COLLAPSE_MIN_PIXELS).tolist():
        pts = grouped[offsets[c]:offsets[c + 1]]
        yield c, pts, sign * _cumdist(metric, pts)


def order_classes(flat: LabelMap, metric: SpectralCube, order: SeedOrder) -> np.ndarray:
    """The seed sequence: every raster index once, grouped by class, in seed order.

    It depends only on the partition, the metric and the seed order, so one
    array serves both passes and every parameter value. The keys of
    class_orderings go to one raster-indexed buffer, where one-pixel classes
    keep 0.0, and one stable lexsort over (label, key) orders all classes at
    once: ties in cumulative distance break on ascending raster index.
    """
    lab = flat.labels.ravel()
    keys = np.zeros(lab.size)
    for _, pts, class_keys in class_orderings(flat, metric, order):
        keys[pts] = class_keys
    return np.lexsort((keys, lab))

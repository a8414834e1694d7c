"""Amplitude-bounded refinement: grow regions where d(seed, pixel) <= eta.

Each flat-zone class is consumed seed by seed. A seed is the first
not-yet-assigned pixel of the class in cumulative-distance order; its
region is grown breadth-first over unassigned class pixels whose distance
to the seed is at most eta, stepping only through pixels already accepted.
Earlier regions therefore block later ones and the result partitions each
class into connected, center-bounded pieces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .grid import Connectivity, LabelMap, SpectralCube
from .metrics import (EdgeWeights, SpectralMetric, _norms, require_same_grid,
                      resolve_edge_weights)
from .seeds import (DEFAULT_REGION_CAP, ClassOrdering, SeedOrder, pair_distances,
                    resolve_ordering, size_batches)


@dataclass(frozen=True)
class EtaParams:
    """Amplitude bound and seed ordering for one refinement run."""

    eta: float
    seed_order: SeedOrder = SeedOrder.MEDIAN_FIRST

    def __post_init__(self):
        if math.isnan(self.eta) or self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")


def eta_bounded_regions(cube: SpectralCube, metric: SpectralMetric, flat: LabelMap,
                        params: EtaParams,
                        connectivity: Connectivity = Connectivity.FOUR,
                        *, edge_weights: EdgeWeights | None = None,
                        max_region_size: int = DEFAULT_REGION_CAP,
                        ordering: ClassOrdering | None = None) -> LabelMap:
    """Refine a flat-zone partition into eta-bounded regions.

    The output refines `flat`; labels follow extraction order (class by
    class, then seed by seed). A seed always accepts itself since its self
    distance is 0 <= eta, so every pixel ends up assigned. `edge_weights`
    shares the neighbour table with the other passes, and `ordering`, from
    `order_classes` on the same partition, skips recomputing the seeds.
    """
    require_same_grid(cube, metric)
    neighbors = resolve_edge_weights(metric, connectivity, edge_weights).neighbors
    ordering = resolve_ordering(flat, metric, params.seed_order, max_region_size, ordering)

    out = np.full(cube.pixel_count, -1, dtype=np.int32)
    # One mask per pass: entries left over from earlier classes sit on
    # assigned pixels, which the growth never enters.
    accept = np.zeros(cube.pixel_count, dtype=bool)
    next_label = 0
    class_rows = _accept_rows(metric, ordering, params.eta)
    for singletons, pts in ordering.runs():
        # a lone seed accepts itself and has no class neighbour to grow into
        out[singletons] = np.arange(next_label, next_label + len(singletons))
        next_label += len(singletons)
        if not len(pts):
            break  # the trailing run of one-pixel classes
        rows = next(class_rows)
        for k, seed in enumerate(pts.tolist()):
            if out[seed] != -1:
                continue
            accept[pts] = rows[k]
            out[seed] = next_label
            queue = deque([seed])
            while queue:
                for j in neighbors[queue.popleft()].tolist():
                    if j >= 0 and out[j] == -1 and accept[j]:
                        out[j] = next_label
                        queue.append(j)
            next_label += 1
    return LabelMap(out.reshape(cube.height, cube.width), next_label)


# Classes of two or more pixels whose accept rows are computed together. With
# _EAGER_CLASS_BYTES it bounds the rows held at once to 512 KB.
_WINDOW_CLASSES = 256
# Largest (K, K, bands) float64 block of one class worth computing up front.
# Past it a batched block costs more than one per-seed row, which is all a
# class with one seed reads: at 63 pixels and 64 bands it cost 50 rows.
_EAGER_CLASS_BYTES = 1 << 14


def _accept_rows(metric: SpectralMetric, ordering: ClassOrdering, eta: float):
    """Per class of two or more pixels, in class order, its accept rows.

    Row k tells which pixels of the seed-ordered class lie within eta of its
    k-th seed. Classes whose block fits _EAGER_CLASS_BYTES come
    _WINDOW_CLASSES at a time, and each size in a window takes its rows from
    pair_distances blocks. Larger classes compute each row when asked. Both
    hold the same distances, bit for bit.
    """
    pixels, offsets = ordering.pixels, ordering.offsets
    multi = np.flatnonzero(np.diff(offsets) > 1)
    for w in range(0, len(multi), _WINDOW_CLASSES):
        window = multi[w:w + _WINDOW_CLASSES]
        starts = offsets[window]
        sizes = offsets[window + 1] - starts
        sizes[sizes * sizes * metric.bands * 8 > _EAGER_CLASS_BYTES] = 0
        rows = [None] * len(window)
        for at, pts in size_batches(sizes, starts, pixels, metric.bands):
            for i, near in zip(at.tolist(), pair_distances(metric, pts) <= eta):
                rows[i] = near
        for i, c in enumerate(window.tolist()):
            yield _RowsOnDemand(metric, pixels[offsets[c]:offsets[c + 1]], eta) \
                if rows[i] is None else rows[i]


class _RowsOnDemand:
    """Accept rows of one class, each computed when indexed, into one reused buffer."""

    def __init__(self, metric: SpectralMetric, pts: np.ndarray, eta: float):
        self.coords = metric.coords_flat[pts]
        self.diff = np.empty_like(self.coords)
        self.eta = eta

    def __getitem__(self, k: int) -> np.ndarray:
        np.subtract(self.coords, self.coords[k], out=self.diff)
        return _norms(self.diff) <= self.eta

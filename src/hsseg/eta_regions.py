"""Amplitude-bounded refinement: grow regions where d(seed, pixel) <= eta.

Each flat-zone class is consumed seed by seed. A seed is the first
not-yet-assigned pixel of the class in cumulative-distance order; its
region is grown breadth-first over unassigned class pixels whose distance
to the seed is at most eta, stepping only through pixels already accepted.
Earlier regions therefore block later ones and the result partitions each
class into connected, center-bounded pieces.
"""

from __future__ import annotations

import numpy as np

from .grid import LabelMap
from .growth import refine_classes
from .metrics import EdgeWeights, SpectralMetric, _norms
from .seeds import _BLOCK_BYTES, ClassOrdering


def eta_bounded_regions(metric: SpectralMetric, edge_weights: EdgeWeights, flat: LabelMap,
                        ordering: ClassOrdering, eta: float) -> LabelMap:
    """Refine a flat-zone partition into eta-bounded regions.

    The output refines `flat`; labels follow extraction order (class by
    class, then seed by seed). A seed always accepts itself since its self
    distance is 0 <= eta, so every pixel ends up assigned. `edge_weights`
    is the neighbour table of the run, and `ordering`, from `order_classes`
    on `flat`, gives the seeds. In small classes, which step together (see
    `growth`), and in larger ones a region grows one breadth-first level at a
    time, computing distances to the seed only for the free pixels reached.
    """
    neighbors = edge_weights.neighbors
    rows = max(1, _BLOCK_BYTES // (8 * metric.bands))

    def region(seed: int, free: np.ndarray) -> np.ndarray:
        reached, level = [np.array([seed])], neighbors[seed]
        free[seed] = False
        while len(level := level[free[level]]):
            level = level[_seed_rows(metric, level, seed) <= eta]
            if not len(level):
                break
            free[level] = False
            reached.append(level)
            # each pixel once: a sort, as np.unique would import numpy.ma
            level = np.sort(neighbors[level], axis=None)
            level = level[np.concatenate(([True], level[1:] != level[:-1]))]
        return np.concatenate(reached)

    def admit(pts: np.ndarray, seeds: np.ndarray) -> np.ndarray:  # in _BLOCK_BYTES blocks
        return np.concatenate([_seed_rows(metric, pts[b:b + rows], seeds[b:b + rows]) <= eta
                               for b in range(0, len(pts), rows)])

    return refine_classes(flat, ordering, edge_weights, region, admit=admit)


def _seed_rows(metric: SpectralMetric, pts: np.ndarray, seeds: np.ndarray | int) -> np.ndarray:
    """Distances from seeds to pts (m,): one seed per pixel (m,), or one seed for all.

    Each is a `_norms` row of an (m, bands) difference, so its bits do not
    depend on which pixels, or how many, share the row.
    """
    cf = metric.coords_flat
    diff = cf[pts]
    diff -= cf[seeds]
    return _norms(diff)

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

from . import metrics
from .grid import LabelMap, SpectralCube
from .growth import _distinct, refine_classes
from .metrics import EdgeWeights, _norms


def eta_bounded_regions(metric: SpectralCube, edge_weights: EdgeWeights, flat: LabelMap,
                        ordering: np.ndarray, eta: float) -> LabelMap:
    """Refine a flat-zone partition into eta-bounded regions.

    The output refines `flat`; labels follow extraction order (class by
    class, then seed by seed). A seed always accepts itself since its self
    distance is 0 <= eta, so every pixel ends up assigned. `edge_weights`
    is the neighbour table of the run, and `ordering`, from `order_classes`
    on `flat`, gives the seeds. `step` grows one region in every small class
    at once and `region` one seed's region in a larger class (see `growth`).
    Both grow one breadth-first level at a time, computing distances to the
    seed only for the free class pixels a level reaches.
    """
    neighbors = edge_weights.neighbors
    rows = max(1, metrics._BLOCK_BYTES // (8 * metric.bands))
    seed_of = np.empty(flat.count, dtype=np.int32)  # of a stepped class, its seed

    def step(owner: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        # seed rows in metrics._BLOCK_BYTES blocks
        seed_of[owner[seeds]] = seeds
        front, members = seeds, []
        while len(front):
            cls = owner[front]
            owner[front] = -1
            members.append(front)
            nb = neighbors[front]
            nb = _distinct(nb[owner[nb] == cls[:, None]])
            near = seed_of[owner[nb]]
            keep = [_seed_rows(metric, nb[b:b + rows], near[b:b + rows]) <= eta
                    for b in range(0, len(nb), rows)]
            front = nb[np.concatenate(keep)] if keep else nb
        return np.concatenate(members)

    def region(seed: int, owner: np.ndarray) -> np.ndarray:
        cls = owner[seed]
        owner[seed] = -1
        reached, level = [np.array([seed])], neighbors[seed]
        while len(level := level[owner[level] == cls]):
            level = level[_seed_rows(metric, level, seed) <= eta]
            if not len(level):
                break
            owner[level] = -1
            reached.append(level)
            level = _distinct(neighbors[level])
        return np.concatenate(reached)

    return refine_classes(flat, ordering, step, region)


def _seed_rows(metric: SpectralCube, pts: np.ndarray, seeds: np.ndarray | int) -> np.ndarray:
    """Distances from seeds to pts (m,): one seed per pixel (m,), or one seed for all.

    Each is a `_norms` row of an (m, bands) difference, so its bits do not
    depend on which pixels, or how many, share the row.
    """
    cf = metric.spectra
    diff = cf[pts]
    diff -= cf[seeds]
    return _norms(diff)

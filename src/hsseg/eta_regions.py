"""Amplitude-bounded refinement: grow regions where d(seed, pixel) <= eta.

Each flat-zone class is consumed seed by seed. A seed is the first
not-yet-assigned pixel of the class in cumulative-distance order; its
region is grown breadth-first over unassigned class pixels whose distance
to the seed is at most eta, stepping only through pixels already accepted.
Earlier regions therefore block later ones and the result partitions each
class into connected, center-bounded pieces.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .grid import LabelMap
from .growth import refine_classes
from .metrics import EdgeWeights, SpectralMetric, _norms
from .seeds import ClassOrdering


def eta_bounded_regions(metric: SpectralMetric, edge_weights: EdgeWeights, flat: LabelMap,
                        ordering: ClassOrdering, eta: float) -> LabelMap:
    """Refine a flat-zone partition into eta-bounded regions.

    The output refines `flat`; labels follow extraction order (class by
    class, then seed by seed). A seed always accepts itself since its self
    distance is 0 <= eta, so every pixel ends up assigned. `edge_weights`
    is the neighbour table of the run, and `ordering`, from `order_classes`
    on `flat`, gives the seeds. Small classes grow in lockstep (see
    `growth`); each larger class grows breadth-first from one seed at a time.
    """
    neighbors = edge_weights.neighbors
    # One mask per pass: the growth reads it only on the unassigned (-1)
    # pixels of the current class.
    accept = np.zeros(metric.pixel_count, dtype=bool)

    def grow_class(pts: np.ndarray, local: np.ndarray) -> None:
        # the class's coordinates and one difference buffer serve every seed
        coords = metric.coords_flat[pts]
        diff = np.empty_like(coords)
        step = 0
        for k, seed in enumerate(pts.tolist()):
            if local[seed] != -1:
                continue
            accept[pts] = _norms(np.subtract(coords, coords[k], out=diff)) <= eta
            local[seed] = step
            queue = deque([seed])
            while queue:
                for j in neighbors[queue.popleft()].tolist():
                    if j >= 0 and local[j] == -1 and accept[j]:
                        local[j] = step
                        queue.append(j)
            step += 1

    return refine_classes(flat, ordering, edge_weights, grow_class,
                          admit=lambda pts, seeds: _seed_rows(metric, pts, seeds) <= eta,
                          admit_bytes=8 * metric.bands)


def _seed_rows(metric: SpectralMetric, pts: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """(r, K) distances from seeds[i] to pts[i], bitwise grow_class's per-seed rows."""
    cf = metric.coords_flat
    diff = cf[pts]
    diff -= cf[seeds][:, None]
    return _norms(diff)

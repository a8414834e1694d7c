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
from .growth import refine_classes
from .metrics import (EdgeWeights, SpectralMetric, _norms, require_same_grid,
                      resolve_edge_weights)
from .seeds import DEFAULT_REGION_CAP, ClassOrdering, SeedOrder, resolve_ordering


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
    Small classes grow in lockstep (see `growth`); each larger class grows
    breadth-first from one seed at a time.
    """
    require_same_grid(cube, metric)
    edge_weights = resolve_edge_weights(metric, connectivity, edge_weights)
    ordering = resolve_ordering(flat, metric, params.seed_order, max_region_size, ordering)
    neighbors, eta = edge_weights.neighbors, params.eta
    # One mask per pass: the growth reads it only on the unassigned (-1)
    # pixels of the current class.
    accept = np.zeros(cube.pixel_count, dtype=bool)

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
    """(r, K) distances from seeds[i] to pts[i], bitwise metric.distances_flat's."""
    cf = metric.coords_flat
    diff = cf[pts]
    diff -= cf[seeds][:, None]
    return _norms(diff)

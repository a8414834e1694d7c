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
    """
    require_same_grid(cube, metric)
    neighbors = resolve_edge_weights(metric, connectivity, edge_weights).neighbors
    ordering = resolve_ordering(flat, metric, params.seed_order, max_region_size, ordering)

    out = np.full(cube.pixel_count, -1, dtype=np.int32)
    # One mask per pass: entries left over from earlier classes sit on
    # assigned pixels, which the growth never enters.
    accept = np.zeros(cube.pixel_count, dtype=bool)
    next_label = 0
    for pts in ordering.classes():
        if len(pts) == 1:
            # a lone seed accepts itself and has no class neighbour to grow into
            out[pts[0]] = next_label
            next_label += 1
            continue
        # distances_flat(seed, pts), with one gather and one reused buffer per class
        coords = metric.coords_flat[pts]
        diff = np.empty_like(coords)
        for k, seed in enumerate(pts.tolist()):
            if out[seed] != -1:
                continue
            np.subtract(coords, coords[k], out=diff)
            accept[pts] = _norms(diff) <= params.eta
            out[seed] = next_label
            queue = deque([seed])
            while queue:
                for j in neighbors[queue.popleft()].tolist():
                    if j >= 0 and out[j] == -1 and accept[j]:
                        out[j] = next_label
                        queue.append(j)
            next_label += 1
    return LabelMap(out.reshape(cube.height, cube.width), next_label)

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
from .metrics import SpectralMetric, require_same_grid
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
                        *, max_region_size: int = DEFAULT_REGION_CAP,
                        ordering: ClassOrdering | None = None) -> LabelMap:
    """Refine a flat-zone partition into eta-bounded regions.

    The output refines `flat`; labels follow extraction order (class by
    class, then seed by seed). A seed always accepts itself since its self
    distance is 0 <= eta, so every pixel ends up assigned. `ordering`, from
    `order_classes` on the same partition, skips recomputing the seeds.
    """
    require_same_grid(cube, metric)
    if flat.labels.shape != (cube.height, cube.width):
        raise ValueError("flat partition does not match the cube grid")

    ordering = resolve_ordering(flat, metric, params.seed_order, max_region_size, ordering)

    w, h = cube.width, cube.height
    out = np.full(w * h, -1, dtype=np.int32)
    offsets = connectivity.offsets
    # One mask per pass: entries left over from earlier classes sit on
    # assigned pixels, which the growth never enters.
    accept = np.zeros(w * h, dtype=bool)
    next_label = 0
    for pts in ordering.classes():
        if len(pts) == 1:
            # a lone seed accepts itself and has no class neighbour to grow into
            out[pts[0]] = next_label
            next_label += 1
            continue
        for seed in pts.tolist():
            if out[seed] != -1:
                continue
            within = metric.distances_flat(seed, pts) <= params.eta
            accept[pts] = within
            out[seed] = next_label
            queue = deque([seed])
            while queue:
                i = queue.popleft()
                x, y = i % w, i // w
                for dx, dy in offsets:
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < w and 0 <= ny < h:
                        j = ny * w + nx
                        if out[j] == -1 and accept[j]:
                            out[j] = next_label
                            queue.append(j)
            next_label += 1
    return LabelMap(out.reshape(h, w), next_label)

"""Geodesic-ball refinement: regions of bounded path-summed spectral distance.

The geodesic distance between two pixels is the minimum over connecting
paths of the summed per-step spectral distances. From each seed (taken in
cumulative-distance order) the ball of radius mu is extracted with a
priority-queue shortest-path expansion restricted to the not-yet-assigned
remainder of the flat-zone class: paths may not route through pixels
already claimed by earlier balls. Geodesic reachability makes every ball
connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .grid import Connectivity, LabelMap, SpectralCube
from .metrics import (EdgeWeights, SpectralMetric, require_same_grid,
                      resolve_edge_weights)
from .seeds import DEFAULT_REGION_CAP, ClassOrdering, SeedOrder, resolve_ordering


@dataclass(frozen=True)
class MuParams:
    """Geodesic radius and seed ordering for one refinement run."""

    mu: float
    seed_order: SeedOrder = SeedOrder.MEDIAN_FIRST

    def __post_init__(self):
        if math.isnan(self.mu) or self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")


def _dijkstra_ball(edge_weights: EdgeWeights, in_domain: np.ndarray,
                   seed: int, radius: float) -> dict[int, float]:
    """Flat-index pixels within geodesic radius of the seed, with distances.

    Lazy-deletion heap; stale entries are skipped when popped. Heap entries
    are (distance, raster index), so equal-priority pops break on raster
    order and zero-weight plateaus resolve deterministically. An off-grid
    entry (-1) weighs +inf, never below `best`'s default, so it is never pushed.
    """
    neighbors, weights = edge_weights.neighbors, edge_weights.weights
    settled: dict[int, float] = {}
    best = {seed: 0.0}
    heap = [(0.0, seed)]
    while heap:
        d, i = heappop(heap)
        if i in settled:
            continue
        settled[i] = d
        for j, weight in zip(neighbors[i].tolist(), weights[i].tolist()):
            if not in_domain[j] or j in settled:
                continue
            nd = d + weight
            if nd <= radius and nd < best.get(j, math.inf):
                best[j] = nd
                heappush(heap, (nd, j))
    return settled


def mu_geodesic_balls(cube: SpectralCube, metric: SpectralMetric, flat: LabelMap,
                      params: MuParams,
                      connectivity: Connectivity = Connectivity.FOUR,
                      *, edge_weights: EdgeWeights | None = None,
                      max_region_size: int = DEFAULT_REGION_CAP,
                      ordering: ClassOrdering | None = None) -> LabelMap:
    """Refine a flat-zone partition into geodesic balls of radius mu.

    The output refines `flat`; labels follow extraction order. The seed is
    always reachable at distance 0, so every class is fully covered.
    `ordering`, from `order_classes` on the same partition, skips
    recomputing the seeds.
    """
    require_same_grid(cube, metric)
    edge_weights = resolve_edge_weights(metric, connectivity, edge_weights)
    ordering = resolve_ordering(flat, metric, params.seed_order, max_region_size, ordering)

    out = np.full(cube.pixel_count, -1, dtype=np.int32)
    # The Dijkstra domain: unassigned pixels of the current class. A finished
    # class has none left, so the mask never needs clearing.
    free = np.zeros(cube.pixel_count, dtype=bool)
    next_label = 0
    for singletons, pts in ordering.runs():
        # a lone seed is its own ball at distance 0
        out[singletons] = np.arange(next_label, next_label + len(singletons))
        next_label += len(singletons)
        free[pts] = True
        for seed in pts.tolist():
            if not free[seed]:
                continue
            ball = list(_dijkstra_ball(edge_weights, free, seed, params.mu))
            out[ball] = next_label
            free[ball] = False
            next_label += 1
    return LabelMap(out.reshape(cube.height, cube.width), next_label)

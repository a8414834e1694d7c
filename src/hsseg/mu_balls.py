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

from .grid import Connectivity, LabelMap, PixelIndex, SpectralCube
from .metrics import (EdgeWeights, SpectralMetric, build_edge_weights,
                      require_same_grid)
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
    order and zero-weight plateaus resolve deterministically.
    """
    w = edge_weights.width
    settled: dict[int, float] = {}
    best = {seed: 0.0}
    heap = [(0.0, seed)]
    while heap:
        d, i = heappop(heap)
        if i in settled:
            continue
        settled[i] = d
        x, y = i % w, i // w
        for nx, ny, weight in edge_weights.neighbor_edges(x, y):
            j = ny * w + nx
            if not in_domain[j] or j in settled:
                continue
            nd = d + weight
            if nd <= radius and nd < best.get(j, math.inf):
                best[j] = nd
                heappush(heap, (nd, j))
    return settled


def geodesic_ball(metric: SpectralMetric, domain, seed, mu: float,
                  connectivity: Connectivity = Connectivity.FOUR,
                  *, edge_weights: EdgeWeights | None = None) -> dict[PixelIndex, float]:
    """All domain pixels whose geodesic distance from the seed is <= mu.

    Edge weights are the spectral distances of adjacent pairs and paths are
    restricted to the given domain. The seed is included at distance 0.
    """
    if math.isnan(mu) or mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    pts = {PixelIndex(int(p[0]), int(p[1])) for p in domain}
    seed = PixelIndex(int(seed[0]), int(seed[1]))
    if seed not in pts:
        raise ValueError(f"seed {tuple(seed)} is not in the domain")
    if edge_weights is None:
        edge_weights = build_edge_weights(metric, connectivity)
    elif edge_weights.connectivity is not connectivity:
        raise ValueError("edge_weights connectivity does not match")
    w = metric.width
    in_domain = np.zeros(metric.pixel_count, dtype=bool)
    for p in pts:
        in_domain[metric.flat_index(p)] = True
    ball = _dijkstra_ball(edge_weights, in_domain, seed.y * w + seed.x, mu)
    return {PixelIndex(i % w, i // w): float(d) for i, d in ball.items()}


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
    if flat.labels.shape != (cube.height, cube.width):
        raise ValueError("flat partition does not match the cube grid")
    if edge_weights is None:
        edge_weights = build_edge_weights(metric, connectivity)
    elif edge_weights.connectivity is not connectivity:
        raise ValueError("edge_weights connectivity does not match")
    ordering = resolve_ordering(flat, metric, params.seed_order, max_region_size, ordering)

    w, h = cube.width, cube.height
    out = np.full(w * h, -1, dtype=np.int32)
    # The Dijkstra domain: unassigned pixels of the current class. A finished
    # class has none left, so the mask never needs clearing.
    free = np.zeros(w * h, dtype=bool)
    next_label = 0
    for pts in ordering.classes():
        if len(pts) == 1:
            # a lone seed is its own ball at distance 0
            out[pts[0]] = next_label
            next_label += 1
            continue
        free[pts] = True
        for seed in pts.tolist():
            if not free[seed]:
                continue
            ball = list(_dijkstra_ball(edge_weights, free, seed, params.mu))
            out[ball] = next_label
            free[ball] = False
            next_label += 1
    return LabelMap(out.reshape(h, w), next_label)

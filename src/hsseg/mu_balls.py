"""Geodesic-ball refinement: regions of bounded path-summed spectral distance.

The geodesic distance between two pixels is the minimum over connecting
paths of the summed per-step spectral distances. From each seed (taken in
cumulative-distance order) the ball of radius mu is extracted by a
shortest-path expansion (lockstep relaxation for small classes, a priority
queue for larger ones) restricted to the not-yet-assigned remainder of the
flat-zone class: paths may not route through pixels already claimed by
earlier balls. Geodesic reachability makes every ball connected.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from .grid import LabelMap
from .growth import refine_classes
from .metrics import EdgeWeights
from .seeds import ClassOrdering


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


def mu_geodesic_balls(edge_weights: EdgeWeights, flat: LabelMap, ordering: ClassOrdering,
                      mu: float) -> LabelMap:
    """Refine a flat-zone partition into geodesic balls of radius mu.

    The output refines `flat`; labels follow extraction order. The seed is
    always reachable at distance 0, so every class is fully covered.
    `edge_weights` is the neighbour table of the run, and `ordering`, from
    `order_classes` on `flat`, gives the seeds. Small classes step together
    by one min-plus relaxation (see `growth`); in a larger class each seed
    still free takes one `_dijkstra_ball` over the class's free pixels.
    """
    return refine_classes(flat, ordering, edge_weights,
                          lambda seed, free: list(_dijkstra_ball(edge_weights, free, seed, mu)),
                          radius=mu)

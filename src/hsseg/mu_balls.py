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
from .growth import _distinct, refine_classes
from .metrics import EdgeWeights


def mu_geodesic_balls(edge_weights: EdgeWeights, flat: LabelMap, ordering: np.ndarray,
                      mu: float) -> LabelMap:
    """Refine a flat-zone partition into geodesic balls of radius mu.

    The output refines `flat`; labels follow extraction order. The seed is
    always reachable at distance 0, so every class is fully covered.
    `edge_weights` is the neighbour table of the run, and `ordering`, from
    `order_classes` on `flat`, gives the seeds. `step` grows one ball in
    every small class at once and `region` one ball in a larger class by a
    Dijkstra search (see `growth`). Float addition is monotone and weights
    are >= 0, so the least fixed point of step's min-plus relaxation holds
    the least left-fold path sums: the pixels a Dijkstra search settles
    within mu.
    """
    neighbors, weights = edge_weights.neighbors, edge_weights.weights
    # a pixel not reached sits just above mu, so one comparison bounds a path
    # sum and asks whether it drops; a sum that overflowed (+inf) never does.
    # Every pixel whose sum dropped is a member, so each step resets its own.
    above = math.nextafter(mu, math.inf)
    dist = np.full(len(neighbors) + 1, above)

    def step(owner: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        dist[seeds] = 0.0
        front, members = seeds, [seeds]
        while len(front):
            nb = neighbors[front]
            keep = owner[nb] == owner[front][:, None]
            cand = weights[front]
            cand += dist[front][:, None]
            nb, cand = nb[keep], cand[keep]
            keep = cand < dist[nb]
            nb = nb[keep]
            np.minimum.at(dist, nb, cand[keep])
            front = _distinct(nb)
            members.append(front)
        members = np.concatenate(members)
        owner[members] = -1
        dist[members] = above
        return members

    def region(seed: int, owner: np.ndarray) -> list[int]:
        # Dijkstra on a lazy-deletion heap of (distance, raster index): equal
        # pops break on raster order, so zero-weight plateaus resolve
        # deterministically, and pops never decrease, so an entry above its
        # pixel's `best` is stale. The pixels `best` holds are the ball.
        cls = owner[seed]
        best = {seed: 0.0}
        heap = [(0.0, seed)]
        while heap:
            d, i = heappop(heap)
            if d > best[i]:
                continue
            for j, weight in zip(neighbors[i].tolist(), weights[i].tolist()):
                nd = d + weight
                if nd < best.get(j, above) and owner[j] == cls:
                    best[j] = nd
                    heappush(heap, (nd, j))
        members = list(best)
        owner[members] = -1
        return members

    return refine_classes(flat, ordering, step, region)

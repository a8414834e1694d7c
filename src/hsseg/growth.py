"""Class-local region growth shared by the eta and mu passes.

Both passes cut each class into regions seed by seed. Classes of 2 to
_LOCKSTEP_MAX_PIXELS pixels step together, one region per class per step, on
the run's neighbour table (`_relax`); larger classes are walked seed by seed,
the pass supplying only each seed's region.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import LabelMap
from .metrics import EdgeWeights
from .seeds import ClassOrdering

# Largest class grown in lockstep. On 1 000 column classes of K pixels (one
# region each, 8 and 64 bands) the lockstep beat the walk at every K from 24 to
# 128, eta by 27-71 times and mu by 6-12. On the many-classes cube gate 128 was
# slower than 16 nowhere, and at lambda 0.035 8-conn and 0.04 4-conn eta ran 5-7
# and mu 3-4 times faster. One large class stepped alone runs mu about 2x slower.
_LOCKSTEP_MAX_PIXELS = 128


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a, ascending, by a sort: np.unique would import numpy.ma."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))[:a.size]]  # a may be empty


def _relax(edge_weights: EdgeWeights, owner: np.ndarray, seeds: np.ndarray,
           radius: float | None, admit) -> np.ndarray:
    """Flat indices of one lockstep step's regions, one per seed, taken from owner.

    owner[p] is p's class while p is free and -1 once taken; its last entry
    stays -1, so an off-grid neighbour (-1) is in no class. A seed grows over
    the free pixels of its class: with radius None, the connected component of
    those admit(pts, seeds_of_pts) keeps, level by level; otherwise a ball, as
    distances relax min-plus from 0 until none drops. Float addition is
    monotone and weights are >= 0, so the least fixed point holds the least
    left-fold path sums: a ball holds the pixels a Dijkstra search settles,
    at a finite sum of at most radius.
    """
    if radius is None:
        seed_of = np.empty(owner[seeds].max() + 1, dtype=owner.dtype)
        seed_of[owner[seeds]] = seeds
        front, members = seeds, []
        while len(front):
            cls = owner[front]
            owner[front] = -1
            members.append(front)
            nb = edge_weights.neighbors[front]
            nb = _distinct(nb[owner[nb] == cls[:, None]])
            front = nb[admit(nb, seed_of[owner[nb]])] if len(nb) else nb
        return np.concatenate(members)
    # a pixel not reached sits just above radius, so one comparison bounds a
    # path sum and asks whether it drops; a sum that overflowed (+inf) never does
    dist = np.full(owner.size, math.nextafter(radius, math.inf))
    dist[seeds] = 0.0
    front, members = seeds, [seeds]
    while len(front):
        nb = edge_weights.neighbors[front]
        keep = owner[nb] == owner[front][:, None]
        cand = edge_weights.weights[front]
        cand += dist[front][:, None]
        nb, cand = nb[keep], cand[keep]
        keep = cand < dist[nb]
        nb = nb[keep]
        np.minimum.at(dist, nb, cand[keep])
        front = _distinct(nb)
        members.append(front)
    members = np.concatenate(members)
    owner[members] = -1
    return members


def refine_classes(flat: LabelMap, ordering: ClassOrdering, edge_weights: EdgeWeights,
                   region, *, radius: float | None = None, admit=None) -> LabelMap:
    """Labels of the regions every class is cut into: class by class, then step by step.

    A lockstep step `_relax`es one region, of radius or kept by admit, in
    every class not yet covered. A larger class is walked in seed order: each
    seed still free takes region(seed, free), the flat indices of its region
    among the free pixels, which region may clear from free itself. free has
    one more entry than the grid, always False, so an off-grid neighbour (-1)
    is never free.
    """
    lab = flat.labels.ravel()
    pixels, offsets = ordering.pixels, ordering.offsets
    sizes = np.diff(offsets)
    local = np.zeros(lab.size, dtype=np.int32)  # a one-pixel class is step 0
    # the free pixels of the lockstep classes, grouped by class in seed order
    queue = pixels[np.repeat((sizes > 1) & (sizes <= _LOCKSTEP_MAX_PIXELS), sizes)]
    owner = np.full(lab.size + 1, -1, dtype=np.int32)
    owner[queue] = lab[queue]
    step = 0
    while len(queue):
        seeds = queue[np.concatenate(([True], lab[queue[1:]] != lab[queue[:-1]]))]
        local[_relax(edge_weights, owner, seeds, radius, admit)] = step
        queue = queue[owner[queue] >= 0]
        step += 1
    # the unassigned pixels of the class being walked; a walked class has none left
    free = np.zeros(lab.size + 1, dtype=bool)
    for c in np.flatnonzero(sizes > _LOCKSTEP_MAX_PIXELS).tolist():
        pts = pixels[offsets[c]:offsets[c + 1]]
        free[pts] = True
        step = 0
        for seed in pts.tolist():
            if free[seed]:
                members = region(seed, free)
                local[members] = step
                free[members] = False
                step += 1
    # a pixel's label: the regions of the classes before its own, plus its step
    counts = np.maximum.reduceat(local[pixels], offsets[:-1]) + 1
    base = np.zeros(flat.count, dtype=np.int32)
    np.cumsum(counts[:-1], out=base[1:])
    labels = base[lab]
    labels += local
    return LabelMap(labels.reshape(flat.labels.shape), int(base[-1] + counts[-1]))

"""Class-local region growth shared by the eta and mu passes.

Both passes cut each class into regions seed by seed. Classes of 2 to
_LOCKSTEP_MAX_PIXELS pixels are batched by size and grown in lockstep, one
region per class per step, by one min-plus relaxation (`_grow`); larger
classes are walked seed by seed, the pass supplying only each seed's region.
"""

from __future__ import annotations

import numpy as np

from .grid import LabelMap
from .metrics import EdgeWeights
from .seeds import ClassOrdering, size_batches

# Largest class grown in lockstep. On column classes (hop diameter K - 1, one
# region each) the lockstep beat the per-seed walk at every K <= 24 in both
# passes at 8 and 64 bands, eta by 4.5 to 12 times, and mu lost at 32 pixels.
# Real classes hold many small regions, one lockstep step each: a gate of 24
# made the many-classes mu job 35-45% slower, so the gate stays at 16.
_LOCKSTEP_MAX_PIXELS = 16


def _grow(nbl: np.ndarray, wl: np.ndarray, allowed: np.ndarray, seeds: np.ndarray,
          radius: float) -> np.ndarray:
    """Which pixels of each row lie within radius of the row's seed: (n, K) bool.

    Row i is one class of K pixels in seed order; nbl[i, p] holds the
    positions of p's class neighbours (K off the class) and wl[i, p] the step
    weights (+inf at K). Distances relax min-plus from 0 at seeds[i] over the
    allowed pixels, and a row drops out once they stop changing. Float
    addition is monotone and weights are >= 0, so the least fixed point
    holds the least left-fold path sums: the members are the pixels a
    Dijkstra search settles, at a finite sum of at most radius.
    """
    n, k = allowed.shape
    limit = min(radius, np.finfo(np.float64).max)
    dist = np.full((n, k + 1), np.inf)  # column K is the off-class sentinel
    dist[np.arange(n), seeds] = 0.0
    rows, d, blocked = np.arange(n), dist, ~allowed
    while len(rows):
        cand = d.take(nbl + (k + 1) * np.arange(len(rows))[:, None, None])
        cand += wl
        new = cand.min(axis=2)
        new[blocked | (new > limit)] = np.inf
        np.minimum(new, d[:, :k], out=new)
        moved = (new != d[:, :k]).any(axis=1)
        d[:, :k] = new
        if not moved.all():
            dist[rows[~moved]] = d[~moved]
            rows, d, nbl, wl, blocked = (a[moved] for a in (rows, d, nbl, wl, blocked))
    return dist[:, :k] <= limit


def refine_classes(flat: LabelMap, ordering: ClassOrdering, edge_weights: EdgeWeights,
                   region, *, radius: float | None = None, admit=None,
                   admit_bytes: int = 0) -> LabelMap:
    """Labels of the regions every class is cut into: class by class, then step by step.

    A lockstep step gives every class not yet covered its first free pixel
    as seed and `_grow`s its ball of radius over the free pixels that
    admit(pts, seed_pixels) accepts, or all of them; radius None grows a
    connected component (zero weights, radius 0). admit holds admit_bytes
    per pixel. A larger class is walked in seed order: each seed still free
    takes region(seed, free), the flat indices of its region among the free
    pixels, which region may clear from free itself. free has one more entry
    than the grid, always False, so an off-grid neighbour (-1) is never free.
    """
    lab = flat.labels.ravel()
    pixels, offsets = ordering.pixels, ordering.offsets
    sizes = np.diff(offsets)
    local = np.zeros(lab.size, dtype=np.int32)  # a one-pixel class is step 0
    pos = np.empty(lab.size, dtype=np.intp)
    per_pixel = 32 * edge_weights.neighbors.shape[1] + admit_bytes
    for _, pts in size_batches(sizes, offsets, pixels, _LOCKSTEP_MAX_PIXELS + 1,
                               lambda k: k * per_pixel):
        n, k = pts.shape
        pos[pts] = np.arange(k)
        nb = edge_weights.neighbors[pts]
        inside = (nb >= 0) & (lab[nb] == lab[pts[:, :1, None]])
        nbl = np.where(inside, pos[nb], k)
        wl = np.where(inside, 0.0 if radius is None else edge_weights.weights[pts], np.inf)
        rest = np.ones((n, k), dtype=bool)
        step = 0
        while len(pts):
            seeds = rest.argmax(axis=1)
            allowed = rest if admit is None else rest & admit(pts, pts[np.arange(len(pts)), seeds])
            member = _grow(nbl, wl, allowed, seeds, radius or 0.0)
            local[pts[member]] = step
            rest &= ~member
            left = rest.any(axis=1)
            pts, nbl, wl, rest = pts[left], nbl[left], wl[left], rest[left]
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

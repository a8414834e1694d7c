"""Class-local region growth shared by the eta and mu passes.

Both passes cut each class into regions seed by seed. Classes of 2 to
_LOCKSTEP_MAX_PIXELS pixels are batched by size and grown in lockstep, one
region per class per step, by one min-plus relaxation (`_grow`); larger
classes take the pass's own per-seed search.
"""

from __future__ import annotations

import numpy as np

from .grid import LabelMap
from .metrics import EdgeWeights
from .seeds import ClassOrdering, size_batches

# Largest class grown in lockstep. On column classes (hop diameter K - 1, one
# region each) the lockstep beat the per-seed loop at every K <= 16 at 8 bands
# and K <= 12 at 64 bands, and took 1.2 to 2.2 times as long at 32 pixels.
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
                   grow_class, *, radius: float | None = None, admit=None,
                   admit_bytes: int = 0) -> LabelMap:
    """Labels of the regions every class is cut into: class by class, then step by step.

    A lockstep step gives every class not yet covered its first free pixel
    as seed and `_grow`s its ball of radius over the free pixels that
    admit(pts, seed_pixels) accepts, or all of them; radius None grows a
    connected component (zero weights, radius 0). admit holds admit_bytes
    per pixel. Each larger class goes to grow_class(pts, local), which
    writes the step index of each pixel of pts into local, -1 until then.
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
        free = np.ones((n, k), dtype=bool)
        step = 0
        while len(pts):
            seeds = free.argmax(axis=1)
            allowed = free if admit is None else free & admit(pts, pts[np.arange(len(pts)), seeds])
            member = _grow(nbl, wl, allowed, seeds, radius or 0.0)
            local[pts[member]] = step
            free &= ~member
            left = free.any(axis=1)
            pts, nbl, wl, free = pts[left], nbl[left], wl[left], free[left]
            step += 1
    for c in np.flatnonzero(sizes > _LOCKSTEP_MAX_PIXELS).tolist():
        pts = pixels[offsets[c]:offsets[c + 1]]
        local[pts] = -1
        grow_class(pts, local)
    # a pixel's label: the regions of the classes before its own, plus its step
    counts = np.maximum.reduceat(local[pixels], offsets[:-1]) + 1
    base = np.zeros(flat.count, dtype=np.int32)
    np.cumsum(counts[:-1], out=base[1:])
    labels = base[lab]
    labels += local
    return LabelMap(labels.reshape(flat.labels.shape), int(base[-1] + counts[-1]))

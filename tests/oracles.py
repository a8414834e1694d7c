"""Brute-force reference implementations, used only by the tests.

These deliberately avoid the library's algorithmic machinery: flat zones
come from union-find transitive closure over thresholded edges, bounded
regions from fixed-point set growth, and geodesic balls from Bellman-Ford
relaxation. Seed ordering follows the same discipline as the library
(cumulative distance, raster tie breaks) but is recomputed here, class by
class, without the library's seed code.

The oracles take the cube and the metric kind, never a built metric: they
compute coordinates, distances and pixel adjacency themselves, so a fault
in the library's metric build, edge weights or neighbour offsets shows up
as a mismatch instead of being copied into the reference. From hsseg they
import only the Connectivity and LabelMap types (test_oracles.py checks
this). The partition audits (refinement and connectivity recount) live
here for the same reason.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from hsseg import Connectivity, LabelMap


class PixelIndex(NamedTuple):
    """Column/row coordinate of one pixel."""

    x: int
    y: int


# Neighbour displacements in canonical order N, S, W, E, NW, NE, SW, SE,
# keyed on Connectivity.value.
_OFFSETS = {
    4: ((0, -1), (0, 1), (-1, 0), (1, 0)),
    8: ((0, -1), (0, 1), (-1, 0), (1, 0), (-1, -1), (1, -1), (-1, 1), (1, 1)),
}


def neighbors(p, connectivity, width, height):
    """In-bounds neighbours of p, in canonical order N, S, W, E, NW, NE, SW, SE."""
    x, y = p
    if not (0 <= x < width and 0 <= y < height):
        raise ValueError(f"pixel ({x}, {y}) out of bounds for {width}x{height} grid")
    return [PixelIndex(x + dx, y + dy) for dx, dy in _OFFSETS[connectivity.value]
            if 0 <= x + dx < width and 0 <= y + dy < height]


def coordinates(cube, kind):
    """(height, width, bands) coordinates whose euclidean distance is `kind`'s.

    Chi-squared: profile f_j(x) / t_x scaled by sqrt(N / s_j), N the grand
    total and s_j the band sums.
    """
    data = cube.data
    if kind.value == "euclidean":
        return data
    band_sums = data.sum(axis=(0, 1))
    return data / data.sum(axis=2, keepdims=True) * np.sqrt(band_sums.sum() / band_sums)


def distance(coords, p, q):
    """Spectral distance between pixels p and q, given as (x, y)."""
    a, b = coords[p[1], p[0]], coords[q[1], q[0]]
    return float(np.sqrt(np.square(a - b).sum()))


def dense_first_appearance(raw):
    """Renumber labels 0, 1, ... in order of first raster appearance."""
    names = {}
    flat = [names.setdefault(v, len(names)) for v in np.asarray(raw).ravel().tolist()]
    return LabelMap(np.array(flat).reshape(np.shape(raw)), len(names))


def is_refinement(fine, coarse):
    """True iff every class of `fine` lies wholly inside one class of `coarse`."""
    if fine.labels.shape != coarse.labels.shape:
        raise ValueError(f"dimension mismatch: {fine.labels.shape} vs {coarse.labels.shape}")
    pairs = fine.labels.astype(np.int64) * coarse.count + coarse.labels
    return len(np.unique(pairs)) == fine.count


def classes_are_connected(labels, connectivity=Connectivity.FOUR):
    """Recount connected components per class; True iff one component each."""
    lab = labels.labels
    h, w = lab.shape
    seen = np.zeros((h, w), dtype=bool)
    components = 0
    for y in range(h):
        for x in range(w):
            if seen[y, x]:
                continue
            components += 1
            if components > labels.count:
                return False
            seen[y, x] = True
            queue = deque([(x, y)])
            while queue:
                p = queue.popleft()
                for nx, ny in neighbors(p, connectivity, w, h):
                    if not seen[ny, nx] and lab[ny, nx] == lab[y, x]:
                        seen[ny, nx] = True
                        queue.append((nx, ny))
    return components == labels.count


class DisjointSet:
    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def flat_zones_unionfind(cube, kind, lam, connectivity=Connectivity.FOUR):
    """Threshold all adjacency edges, then take the union-find closure."""
    w, h = cube.width, cube.height
    coords = coordinates(cube, kind)
    ds = DisjointSet(w * h)
    for y in range(h):
        for x in range(w):
            for nx, ny in neighbors((x, y), connectivity, w, h):
                if distance(coords, (x, y), (nx, ny)) <= lam:
                    ds.union(y * w + x, ny * w + nx)
    roots = np.array([ds.find(i) for i in range(w * h)]).reshape(h, w)
    return dense_first_appearance(roots)


def flat_zone_class_sets(cube, kind, lam, connectivity=Connectivity.FOUR):
    """Classes as a set of frozensets, built with a reversed scan order."""
    w, h = cube.width, cube.height
    coords = coordinates(cube, kind)
    ds = DisjointSet(w * h)
    for y in reversed(range(h)):
        for x in reversed(range(w)):
            for nx, ny in neighbors((x, y), connectivity, w, h):
                if distance(coords, (x, y), (nx, ny)) <= lam:
                    ds.union(y * w + x, ny * w + nx)
    classes = {}
    for i in range(w * h):
        classes.setdefault(ds.find(i), set()).add(i)
    return {frozenset(c) for c in classes.values()}


def label_class_sets(labels):
    flat = labels.labels.ravel()
    return {frozenset(np.flatnonzero(flat == c).tolist()) for c in range(labels.count)}


def naive_cumdists(cube, kind, pixels):
    """Scalar double-loop cumulative distances, summed in the given order."""
    coords = coordinates(cube, kind)
    return {p: sum(distance(coords, p, q) for q in pixels) for p in pixels}


def reference_orderings(cube, kind, flat, antimedian=False):
    """Per-class seed sequences (raster indices) and sort keys, by label.

    A full-grid scan per class lists its pixels in raster order, a row loop
    gives their cumulative distances (negated for the anti-median), and one
    lexsort per class orders them by (key, raster index).
    """
    lab = flat.labels.ravel()
    cf = coordinates(cube, kind).reshape(-1, cube.bands)
    classes, keys = [], []
    for c in range(flat.count):
        pts = np.flatnonzero(lab == c)
        coords = cf[pts]
        # The library kernel's expression and summation order rather than
        # naive_cumdists: quantized test cubes have near-ties, and another
        # summation order could round them, and so rank seeds, differently.
        cd = np.empty(len(pts))
        for i in range(len(pts)):
            cd[i] = np.sqrt(np.square(coords - coords[i]).sum(axis=1)).sum()
        key = -cd if antimedian else cd
        classes.append(pts[np.lexsort((pts, key))])
        keys.append(key)
    return classes, keys


def seed_sequence(cube, kind, flat, antimedian=False):
    """Each class's pixels in raster order, paired with its seed sequence."""
    w = flat.width
    classes, _ = reference_orderings(cube, kind, flat, antimedian)
    for seq in classes:
        seeds = [PixelIndex(i % w, i // w) for i in seq.tolist()]
        yield sorted(seeds, key=lambda p: (p.y, p.x)), seeds


def eta_regions_bruteforce(cube, kind, flat, eta, antimedian=False,
                           connectivity=Connectivity.FOUR):
    """Fixed-point region growth per the amplitude-bound definition.

    Returns (labels, regions) where regions is a list of (seed, members).
    """
    w, h = cube.width, cube.height
    coords = coordinates(cube, kind)
    out = np.full((h, w), -1, dtype=np.int64)
    regions = []
    next_label = 0
    for pixels, ordering in seed_sequence(cube, kind, flat, antimedian):
        for seed in ordering:
            if out[seed.y, seed.x] != -1:
                continue
            allowed = {p for p in pixels
                       if out[p.y, p.x] == -1 and distance(coords, seed, p) <= eta}
            region = {seed}
            changed = True
            while changed:
                changed = False
                for p in allowed:
                    if p in region:
                        continue
                    if any(PixelIndex(nx, ny) in region
                           for nx, ny in neighbors(p, connectivity, w, h)):
                        region.add(p)
                        changed = True
            for p in region:
                out[p.y, p.x] = next_label
            regions.append((seed, region))
            next_label += 1
    return LabelMap(out), regions


def bellman_ford(cube, kind, domain, seed, connectivity=Connectivity.FOUR):
    """Geodesic distances from the seed inside `domain`, by pure relaxation."""
    w, h = cube.width, cube.height
    coords = coordinates(cube, kind)
    dist = {p: np.inf for p in domain}
    dist[seed] = 0.0
    changed = True
    while changed:
        changed = False
        for p in domain:
            dp = dist[p]
            if dp == np.inf:
                continue
            for nx, ny in neighbors(p, connectivity, w, h):
                q = PixelIndex(nx, ny)
                if q in dist:
                    nd = dp + distance(coords, p, q)
                    if nd < dist[q]:
                        dist[q] = nd
                        changed = True
    return dist


def mu_balls_bruteforce(cube, kind, flat, mu, antimedian=False,
                        connectivity=Connectivity.FOUR):
    """Bellman-Ford geodesic balls with the same seed discipline.

    Returns (labels, balls) where balls is a list of (seed, {pixel: dist}).
    """
    w, h = cube.width, cube.height
    out = np.full((h, w), -1, dtype=np.int64)
    balls = []
    next_label = 0
    for pixels, ordering in seed_sequence(cube, kind, flat, antimedian):
        for seed in ordering:
            if out[seed.y, seed.x] != -1:
                continue
            domain = [p for p in pixels if out[p.y, p.x] == -1]
            dist = bellman_ford(cube, kind, domain, seed, connectivity)
            ball = {p: d for p, d in dist.items() if d <= mu}
            for p in ball:
                out[p.y, p.x] = next_label
            balls.append((seed, ball))
            next_label += 1
    return LabelMap(out), balls

"""Brute-force reference implementations, used only by the tests.

These deliberately avoid the library's algorithmic machinery: flat zones
come from union-find transitive closure over thresholded edges, bounded
regions from fixed-point set growth, and geodesic balls from Bellman-Ford
relaxation. Seed ordering follows the same discipline as the library
(cumulative distance, raster tie breaks) but is recomputed here, class by
class, without the library's seed code.
"""

from __future__ import annotations

import numpy as np

from hsseg import (Connectivity, LabelMap, PixelIndex, neighbors,
                   relabel_dense)


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


def flat_zones_unionfind(cube, metric, lam, connectivity=Connectivity.FOUR):
    """Threshold all adjacency edges, then take the union-find closure."""
    w, h = cube.width, cube.height
    ds = DisjointSet(w * h)
    for y in range(h):
        for x in range(w):
            for nx, ny in neighbors((x, y), connectivity, w, h):
                if metric.distance((x, y), (nx, ny)) <= lam:
                    ds.union(y * w + x, ny * w + nx)
    roots = np.array([ds.find(i) for i in range(w * h)]).reshape(h, w)
    return relabel_dense(roots)


def flat_zone_class_sets(cube, metric, lam, connectivity=Connectivity.FOUR):
    """Classes as a set of frozensets, built with a reversed scan order."""
    w, h = cube.width, cube.height
    ds = DisjointSet(w * h)
    for y in reversed(range(h)):
        for x in reversed(range(w)):
            for nx, ny in neighbors((x, y), connectivity, w, h):
                if metric.distance((x, y), (nx, ny)) <= lam:
                    ds.union(y * w + x, ny * w + nx)
    classes = {}
    for i in range(w * h):
        classes.setdefault(ds.find(i), set()).add(i)
    return {frozenset(c) for c in classes.values()}


def label_class_sets(labels: LabelMap):
    flat = labels.labels.ravel()
    return {frozenset(np.flatnonzero(flat == c).tolist()) for c in range(labels.count)}


def naive_cumdists(metric, pixels):
    """Scalar double-loop cumulative distances, summed in raster order."""
    return {p: sum(metric.distance(p, q) for q in pixels) for p in pixels}


def reference_orderings(flat, metric, antimedian=False):
    """Per-class seed sequences (raster indices) and sort keys, by label.

    A full-grid scan per class lists its pixels in raster order, a row loop
    gives their cumulative distances (negated for the anti-median), and one
    lexsort per class orders them by (key, raster index).
    """
    lab = flat.labels.ravel()
    cf = metric.coords_flat
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


def seed_sequence(metric, flat, antimedian=False):
    """Each class's pixels in raster order, paired with its seed sequence."""
    w = flat.width
    classes, _ = reference_orderings(flat, metric, antimedian)
    for seq in classes:
        seeds = [PixelIndex(i % w, i // w) for i in seq.tolist()]
        yield sorted(seeds, key=lambda p: (p.y, p.x)), seeds


def eta_regions_bruteforce(cube, metric, flat, eta, antimedian=False,
                           connectivity=Connectivity.FOUR):
    """Fixed-point region growth per the amplitude-bound definition.

    Returns (labels, regions) where regions is a list of (seed, members).
    """
    w, h = cube.width, cube.height
    out = np.full((h, w), -1, dtype=np.int64)
    regions = []
    next_label = 0
    for pixels, ordering in seed_sequence(metric, flat, antimedian):
        for seed in ordering:
            if out[seed.y, seed.x] != -1:
                continue
            allowed = {p for p in pixels
                       if out[p.y, p.x] == -1 and metric.distance(seed, p) <= eta}
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


def bellman_ford(metric, domain, seed, connectivity=Connectivity.FOUR):
    """Geodesic distances from the seed inside `domain`, by pure relaxation."""
    w = metric.width
    h = metric.height
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
                    nd = dp + metric.distance(p, q)
                    if nd < dist[q]:
                        dist[q] = nd
                        changed = True
    return dist


def mu_balls_bruteforce(cube, metric, flat, mu, antimedian=False,
                        connectivity=Connectivity.FOUR):
    """Bellman-Ford geodesic balls with the same seed discipline.

    Returns (labels, balls) where balls is a list of (seed, {pixel: dist}).
    """
    w, h = cube.width, cube.height
    out = np.full((h, w), -1, dtype=np.int64)
    balls = []
    next_label = 0
    for pixels, ordering in seed_sequence(metric, flat, antimedian):
        for seed in ordering:
            if out[seed.y, seed.x] != -1:
                continue
            domain = [p for p in pixels if out[p.y, p.x] == -1]
            dist = bellman_ford(metric, domain, seed, connectivity)
            ball = {p: d for p, d in dist.items() if d <= mu}
            for p in ball:
                out[p.y, p.x] = next_label
            balls.append((seed, ball))
            next_label += 1
    return LabelMap(out), balls

"""Quasi-flat zones: maximal connected classes with bounded per-step distance.

Two pixels share a zone iff some path joins them whose every adjacent step
has spectral distance <= lambda (inclusive). The comparison must be
inclusive: with a step profile of exactly 10, lambda = 9.9 and lambda = 10
land on opposite sides of every edge. The zones are the connected
components of the neighbour-table entries with weight <= lambda.
"""

from __future__ import annotations

import numpy as np

from .grid import LabelMap, SpectralCube
from .metrics import EdgeWeights


def _hook(root: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One round of min-label hooking of roots, then pointer jumping to a fixed point.

    Each root takes the smallest root across its edges, both ways (Shiloach
    and Vishkin, J. Algorithms 1982), so a zone's root ends as its smallest
    raster index. An edge between two roots moves the larger one, so every
    round makes progress. Hooking roots, not pixels, keeps a long thin zone
    to a few rounds.
    """
    new = root.copy()
    np.minimum.at(new, root[u], root[v])
    np.minimum.at(new, root[v], root[u])
    while True:
        jumped = new[new]
        if np.array_equal(jumped, new):
            return new
        new = jumped


def lambda_flat_zones(metric: SpectralCube, edge_weights: EdgeWeights,
                      lam: float) -> LabelMap:
    """Partition the metric's grid into lambda-flat zones over edge_weights.

    Labels are dense in order of first raster appearance. edge_weights,
    from `build_edge_weights` on this metric, sets the connectivity.
    """
    # Each edge once, from the entry whose neighbour index is above the
    # pixel's own: an off-grid -1 never is, even at lambda = inf.
    n = metric.pixel_count
    joined = edge_weights.neighbors > np.arange(n, dtype=np.int32)[:, None]
    joined &= edge_weights.weights <= lam
    u = np.nonzero(joined)[0]
    v = edge_weights.neighbors[joined]
    root = np.arange(n, dtype=np.int32)
    while len(u):
        root = _hook(root, u, v)
        apart = root[u] != root[v]
        u, v = u[apart], v[apart]
    # each zone's root is its smallest raster index
    first = root == np.arange(n)
    labels = np.cumsum(first, dtype=np.int32)[root] - 1
    return LabelMap(labels.reshape(metric.height, metric.width), int(first.sum()))

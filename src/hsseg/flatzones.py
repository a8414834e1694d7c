"""Quasi-flat zones: maximal connected classes with bounded per-step distance.

Two pixels share a zone iff some path joins them whose every adjacent step
has spectral distance <= lambda (inclusive). The comparison must be
inclusive: with a step profile of exactly 10, lambda = 9.9 and lambda = 10
land on opposite sides of every edge. The zones are the connected
components of the neighbour-table entries with weight <= lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Connectivity, LabelMap, SpectralCube
from .metrics import (EdgeWeights, SpectralMetric, require_same_grid,
                      resolve_edge_weights)


@dataclass(frozen=True)
class LambdaParams:
    """Zone threshold, adjacency and metric for one flat-zone run."""

    metric: SpectralMetric
    lam: float
    connectivity: Connectivity = Connectivity.FOUR

    def __post_init__(self):
        if math.isnan(self.lam) or self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")


def _hook(root: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One round of min-label hooking of roots, then pointer jumping to a fixed point.

    Each root takes the smallest root across its edges u -> v (Shiloach and
    Vishkin, J. Algorithms 1982), so a zone's root ends as its smallest raster
    index. Hooking roots, not pixels, keeps a long thin zone to a few rounds.
    """
    new = root.copy()
    np.minimum.at(new, root[u], root[v])
    while True:
        jumped = new[new]
        if np.array_equal(jumped, new):
            return new
        new = jumped


def lambda_flat_zones(cube: SpectralCube, params: LambdaParams,
                      *, edge_weights: EdgeWeights | None = None) -> LabelMap:
    """Partition the cube into lambda-flat zones.

    Labels are dense in order of first raster appearance. An EdgeWeights
    built for the same metric and connectivity can be passed in to share
    the neighbour table with other passes.
    """
    metric = params.metric
    require_same_grid(cube, metric)
    edge_weights = resolve_edge_weights(metric, params.connectivity, edge_weights)

    # Both directions of every edge, so the rounds end when no edge joins two
    # roots. Off-grid entries weigh +inf: a finite bound keeps them out even
    # at lambda = inf.
    joined = edge_weights.weights <= min(params.lam, np.finfo(np.float64).max)
    u = np.nonzero(joined)[0]
    v = edge_weights.neighbors[joined]
    root = np.arange(cube.pixel_count, dtype=np.int32)
    while len(u):
        root = _hook(root, u, v)
        apart = root[u] != root[v]
        u, v = u[apart], v[apart]
    # each zone's root is its smallest raster index
    first = root == np.arange(cube.pixel_count)
    labels = np.cumsum(first, dtype=np.int32)[root] - 1
    return LabelMap(labels.reshape(cube.height, cube.width), int(first.sum()))

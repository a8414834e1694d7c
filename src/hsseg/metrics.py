"""Spectral distances between pixel spectra, behind one metric interface.

Two metrics are provided. The euclidean distance compares raw spectra. The
chi-squared distance compares marginal-normalized profiles: with band sums
``s_j``, per-pixel sums ``t_x`` and grand total ``N``, it is the euclidean
distance between profiles ``f_j(x) / t_x`` after scaling band j by
``sqrt(N / s_j)``. Both metrics therefore reduce internally to a euclidean
norm on precomputed per-pixel coordinates, which keeps every caller (flat
zones, seed ordering, eta growth, geodesic passes) on one path, `_norms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateMarginalError
from .grid import Connectivity, SpectralCube


class MetricKind(Enum):
    EUCLIDEAN = "euclidean"
    CHI_SQUARED = "chi_squared"


def _norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis. Squares diff in place, so pass a temporary."""
    return np.sqrt(np.square(diff, out=diff).sum(axis=-1))


class SpectralMetric:
    """Distance context bound to one cube.

    Immutable after build, so it is safe to share between concurrent
    readers. For chi-squared the marginals are folded into `coords` once
    here, since segmentation passes evaluate distances O(K^2) times per
    region. Every distance is `_norms` of a `coords_flat` difference, so
    `distances_flat` and `seeds.pair_distances` agree bit for bit.
    """

    __slots__ = ("kind", "width", "height", "bands", "coords")

    def __init__(self, kind, coords):
        self.kind = kind
        self.coords = coords
        self.height, self.width, self.bands = coords.shape

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    @property
    def coords_flat(self) -> np.ndarray:
        """(pixel_count, bands) view of the coordinate array, raster order."""
        return self.coords.reshape(self.pixel_count, self.bands)

    def distances_flat(self, i: int, pts: np.ndarray) -> np.ndarray:
        """Distances from flat pixel i to each flat pixel in pts (no bounds checks)."""
        cf = self.coords_flat
        return _norms(cf[pts] - cf[i])

    def __repr__(self) -> str:
        return f"SpectralMetric({self.kind.value}, {self.width}x{self.height}x{self.bands})"


def build_metric(cube: SpectralCube, kind: MetricKind) -> SpectralMetric:
    """Build the distance context for a cube; chi-squared folds in its marginals.

    Chi-squared requires non-negative data and strictly positive band and
    pixel sums, otherwise the normalized profiles are undefined.
    """
    if kind is MetricKind.EUCLIDEAN:
        return SpectralMetric(kind, cube.data)
    if kind is not MetricKind.CHI_SQUARED:
        raise ValueError(f"unknown metric kind: {kind!r}")

    data = cube.data
    if (data < 0).any():
        y, x, j = (int(v) for v in np.argwhere(data < 0)[0])
        raise ValueError(
            f"chi-squared requires non-negative values; data[x={x}, y={y}, band={j}] < 0"
        )
    band_sums = data.sum(axis=(0, 1))
    # The per-pixel sum runs over all L bands.
    pixel_sums = data.sum(axis=2)
    zero_bands = np.flatnonzero(band_sums == 0)
    if zero_bands.size:
        raise DegenerateMarginalError(f"band {int(zero_bands[0])} sums to zero")
    zero_pix = np.argwhere(pixel_sums == 0)
    if zero_pix.size:
        y, x = (int(v) for v in zero_pix[0])
        raise DegenerateMarginalError(f"pixel (x={x}, y={y}) has zero spectral sum")
    total = float(band_sums.sum())
    coords = (data / pixel_sums[:, :, None]) * np.sqrt(total / band_sums)
    coords.flags.writeable = False
    return SpectralMetric(kind, coords)


def require_same_grid(cube: SpectralCube, metric: SpectralMetric) -> None:
    """Reject metrics built for a different grid than the cube at hand."""
    if (cube.width, cube.height, cube.bands) != (metric.width, metric.height, metric.bands):
        raise ValueError(
            f"metric was built for a {metric.width}x{metric.height}x{metric.bands} cube, "
            f"got {cube.width}x{cube.height}x{cube.bands}"
        )


@dataclass(frozen=True, eq=False)
class EdgeWeights:
    """Neighbour table of one grid and connectivity: the one adjacency of every pass.

    Row i of `neighbors` (N x k int32) holds pixel i's neighbours in the
    canonical order of `Connectivity.offsets` (N, S, W, E, NW, NE, SW, SE),
    -1 where the offset leaves the grid. `weights` (N x k float64) holds each
    step's spectral distance, bitwise the same in both directions, and +inf
    at the -1 entries. `build_edge_weights` makes both arrays read-only.
    """

    connectivity: Connectivity
    neighbors: np.ndarray
    weights: np.ndarray

    def total_weight(self) -> float:
        """Sum of all adjacent-pair distances; an upper bound on any geodesic."""
        forward = self.neighbors > np.arange(len(self.neighbors))[:, None]
        return float(self.weights[forward].sum())


# Pixels per block when filling the weights: bounds the gathered temporaries.
_EDGE_BLOCK = 1024


def build_edge_weights(metric: SpectralMetric,
                       connectivity: Connectivity = Connectivity.FOUR) -> EdgeWeights:
    h, w, n = metric.height, metric.width, metric.pixel_count
    padded = np.full((h + 2, w + 2), -1, dtype=np.int32)
    padded[1:-1, 1:-1] = np.arange(n, dtype=np.int32).reshape(h, w)
    neighbors = np.stack([padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w].ravel()
                          for dx, dy in connectivity.offsets], axis=1)
    weights = np.empty(neighbors.shape)
    cf = metric.coords_flat
    for start in range(0, n, _EDGE_BLOCK):
        block = slice(start, start + _EDGE_BLOCK)
        # -1 gathers the last pixel here; those entries become +inf below
        diff = cf[neighbors[block]]
        diff -= cf[block, None]
        weights[block] = _norms(diff)
    weights[neighbors < 0] = np.inf
    # frozen, so a shared table keeps the symmetry every pass relies on
    neighbors.flags.writeable = weights.flags.writeable = False
    return EdgeWeights(connectivity, neighbors, weights)


def resolve_edge_weights(metric: SpectralMetric, connectivity: Connectivity,
                         edge_weights: EdgeWeights | None) -> EdgeWeights:
    """The given table, checked against the connectivity and the grid, or a fresh one."""
    if edge_weights is None:
        return build_edge_weights(metric, connectivity)
    if (edge_weights.connectivity is not connectivity
            or len(edge_weights.neighbors) != metric.pixel_count):
        raise ValueError("edge_weights do not match the connectivity or the grid")
    return edge_weights

"""Spectral distances between pixels, as euclidean norms on one coordinate cube.

Two metrics are provided. The euclidean distance compares raw spectra. The
chi-squared distance compares marginal-normalized profiles: with band sums
``s_j``, per-pixel sums ``t_x`` and grand total ``N``, it is the euclidean
distance between profiles ``f_j(x) / t_x`` after scaling band j by
``sqrt(N / s_j)``. `build_metric` turns either into a `SpectralCube` of
per-pixel coordinates, the cube itself for euclidean, and every caller
(flat zones, seed ordering, eta growth, geodesic passes) measures a
distance as `_norms` of a coordinate difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateMarginalError
from .grid import Connectivity, SpectralCube


class MetricKind(Enum):
    """A spectral metric; its value is the CLI's --metric name."""

    EUCLIDEAN = "euclidean"
    CHI_SQUARED = "chi2"


# Bytes of one block of float64 differences handed to _norms: of the edge
# table's (rows, k, bands) block, of the ordering's (classes, K, K, bands)
# block of a batch of small classes, which holds at least one class, and of
# the (pixels, bands) seed rows of an eta lockstep level.
_BLOCK_BYTES = 1 << 18


def _norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis. Squares diff in place, so pass a temporary."""
    return np.sqrt(np.square(diff, out=diff).sum(axis=-1))


def build_metric(cube: SpectralCube, kind: MetricKind) -> SpectralCube:
    """The cube of per-pixel coordinates that every distance of a run is measured in.

    Euclidean coordinates are the spectra, so the cube itself is returned.
    Chi-squared folds the marginals in once, into a new cube of profile
    coordinates, since segmentation passes evaluate distances O(K^2) times
    per region. Every distance is `_norms` of a difference of rows of the
    result's `spectra`, so the edge weights, `seeds.pair_distances` and the
    eta seed rows agree bit for bit.

    Chi-squared requires non-negative data, strictly positive band and
    pixel sums, and a grand total and band scales ``sqrt(N / s_j)`` within
    float64, otherwise the normalized profiles are undefined.
    """
    if kind is MetricKind.EUCLIDEAN:
        return cube
    if kind is not MetricKind.CHI_SQUARED:
        raise ValueError(f"unknown metric kind: {kind!r}")

    data = cube.data
    if (data < 0).any():
        y, x, j = (int(v) for v in np.argwhere(data < 0)[0])
        raise ValueError(
            f"chi-squared requires non-negative values; data[x={x}, y={y}, band={j}] < 0"
        )
    # Every band and pixel sum is at most the total, so a sum or a scale
    # beyond float64 shows in the scales, and is raised below, not warned about.
    with np.errstate(all="ignore"):
        band_sums = data.sum(axis=(0, 1))
        # The per-pixel sum runs over all L bands.
        pixel_sums = data.sum(axis=2)
        total = float(band_sums.sum())
        scale = np.sqrt(total / band_sums)
    zero_bands = np.flatnonzero(band_sums == 0)
    if zero_bands.size:
        raise DegenerateMarginalError(f"band {int(zero_bands[0])} sums to zero")
    zero_pix = np.argwhere(pixel_sums == 0)
    if zero_pix.size:
        y, x = (int(v) for v in zero_pix[0])
        raise DegenerateMarginalError(f"pixel (x={x}, y={y}) has zero spectral sum")
    wide = np.flatnonzero(~np.isfinite(scale))
    if wide.size:
        j = int(wide[0])
        raise DegenerateMarginalError(f"the scale of band {j} overflows float64: "
                                      f"total {total}, band sum {band_sums[j]}")
    return SpectralCube(data / pixel_sums[:, :, None] * scale)


@dataclass(frozen=True, eq=False)
class EdgeWeights:
    """Neighbour table of one grid and connectivity: the one adjacency of every pass.

    Row i of `neighbors` (N x k int32) holds pixel i's neighbours in the
    canonical order of `Connectivity.offsets` (N, S, W, E, NW, NE, SW, SE),
    -1 where the offset leaves the grid. `weights` (N x k float64) holds each
    step's spectral distance, bitwise the same in both directions, and +inf
    at the -1 entries. `build_edge_weights` makes both arrays read-only.
    """

    neighbors: np.ndarray
    weights: np.ndarray

    def total_weight(self) -> float:
        """Sum of all adjacent-pair distances; an upper bound on any geodesic."""
        forward = self.neighbors > np.arange(len(self.neighbors))[:, None]
        return float(self.weights[forward].sum())


def build_edge_weights(metric: SpectralCube,
                       connectivity: Connectivity = Connectivity.FOUR) -> EdgeWeights:
    """The neighbour table of metric's grid, each step weighted by its spectral distance.

    The differences are taken in blocks of _BLOCK_BYTES, or of one row if that is more.
    """
    h, w, n = metric.height, metric.width, metric.pixel_count
    padded = np.full((h + 2, w + 2), -1, dtype=np.int32)
    padded[1:-1, 1:-1] = np.arange(n, dtype=np.int32).reshape(h, w)
    neighbors = np.stack([padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w].ravel()
                          for dx, dy in connectivity.offsets], axis=1)
    weights = np.empty(neighbors.shape)
    cf = metric.spectra
    rows = max(1, _BLOCK_BYTES // (8 * metric.bands * neighbors.shape[1]))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        # -1 gathers the last pixel here; those entries become +inf below
        diff = cf[neighbors[block]]
        diff -= cf[block, None]
        weights[block] = _norms(diff)
    weights[neighbors < 0] = np.inf
    # frozen, so a shared table keeps the symmetry every pass relies on
    neighbors.flags.writeable = weights.flags.writeable = False
    return EdgeWeights(neighbors, weights)

"""Spectral distances between pixel spectra, behind one metric interface.

Two metrics are provided. The euclidean distance compares raw spectra. The
chi-squared distance compares marginal-normalized profiles: with band sums
``s_j``, per-pixel sums ``t_x`` and grand total ``N``, it is the euclidean
distance between profiles ``f_j(x) / t_x`` after scaling band j by
``sqrt(N / s_j)``. Both metrics therefore reduce internally to a euclidean
norm on precomputed per-pixel coordinates, which keeps every caller (flood
fill, seed ordering, geodesic passes) on one identical arithmetic path.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DegenerateMarginalError
from .grid import Connectivity, SpectralCube


class MetricKind(Enum):
    EUCLIDEAN = "euclidean"
    CHI_SQUARED = "chi_squared"


class SpectralMetric:
    """Distance context bound to one cube.

    Immutable after build; `distances_flat` is pure and safe to call from
    any number of concurrent workers. For chi-squared the marginals are
    folded into `coords` once here, since segmentation passes evaluate
    distances O(K^2) times per region.
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
        return np.sqrt(np.square(cf[pts] - cf[i]).sum(axis=1))

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


def _norms(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(np.square(diff).sum(axis=-1))


class EdgeWeights:
    """Spectral distances across every adjacent pixel pair, by direction.

    Built once per (metric, connectivity) and shareable between the flood
    fill and the geodesic passes, which use identical edge weights.
    """

    __slots__ = ("connectivity", "width", "height", "right", "down", "diag_se", "diag_sw")

    def __init__(self, connectivity, width, height, right, down, diag_se=None, diag_sw=None):
        self.connectivity = connectivity
        self.width = width
        self.height = height
        self.right = right        # (H, W-1): edge (x, y)-(x+1, y)
        self.down = down          # (H-1, W): edge (x, y)-(x, y+1)
        self.diag_se = diag_se    # (H-1, W-1): edge (x, y)-(x+1, y+1)
        self.diag_sw = diag_sw    # (H-1, W-1): edge (x+1, y)-(x, y+1)

    def neighbor_edges(self, x: int, y: int):
        """Yield (nx, ny, weight) for in-bounds neighbors, canonical order."""
        w, h = self.width, self.height
        if y > 0:
            yield x, y - 1, self.down[y - 1, x]
        if y < h - 1:
            yield x, y + 1, self.down[y, x]
        if x > 0:
            yield x - 1, y, self.right[y, x - 1]
        if x < w - 1:
            yield x + 1, y, self.right[y, x]
        if self.connectivity is Connectivity.EIGHT:
            if x > 0 and y > 0:
                yield x - 1, y - 1, self.diag_se[y - 1, x - 1]
            if x < w - 1 and y > 0:
                yield x + 1, y - 1, self.diag_sw[y - 1, x]
            if x > 0 and y < h - 1:
                yield x - 1, y + 1, self.diag_sw[y, x - 1]
            if x < w - 1 and y < h - 1:
                yield x + 1, y + 1, self.diag_se[y, x]

    def total_weight(self) -> float:
        """Sum of all adjacent-pair distances; an upper bound on any geodesic."""
        total = float(self.right.sum()) + float(self.down.sum())
        if self.connectivity is Connectivity.EIGHT:
            total += float(self.diag_se.sum()) + float(self.diag_sw.sum())
        return total


def build_edge_weights(metric: SpectralMetric,
                       connectivity: Connectivity = Connectivity.FOUR) -> EdgeWeights:
    c = metric.coords
    right = _norms(c[:, 1:] - c[:, :-1])
    down = _norms(c[1:] - c[:-1])
    se = sw = None
    if connectivity is Connectivity.EIGHT:
        se = _norms(c[1:, 1:] - c[:-1, :-1])
        sw = _norms(c[1:, :-1] - c[:-1, 1:])
    return EdgeWeights(connectivity, metric.width, metric.height, right, down, se, sw)

"""Grid data model: spectral cubes, connectivity kinds, label maps, partition order.

Pixels live on a width x height grid. The flat raster index of pixel
(x, y) is ``y * width + x``, so raster order scans rows top to bottom and
each row left to right. Arrays are stored (height, width, ...), meaning
``array[y, x]`` addresses pixel (x, y).
"""

from __future__ import annotations

from enum import Enum

import numpy as np


_OFFSETS_FOUR = ((0, -1), (0, 1), (-1, 0), (1, 0))
_OFFSETS_EIGHT = _OFFSETS_FOUR + ((-1, -1), (1, -1), (-1, 1), (1, 1))


class Connectivity(Enum):
    """Pixel adjacency: edge-sharing (four) or edge-or-corner (eight)."""

    FOUR = 4
    EIGHT = 8

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        """Neighbor displacements in canonical order N, S, W, E, NW, NE, SW, SE."""
        return _OFFSETS_FOUR if self is Connectivity.FOUR else _OFFSETS_EIGHT


class SpectralCube:
    """Immutable grid of L-band spectra stored as float64.

    ``data`` has shape (height, width, bands); the spectrum of pixel (x, y)
    is ``data[y, x]``, and ``spectra`` is the (pixel_count, bands) view of
    it in raster order. Values are validated finite at construction and the
    buffer is frozen, so a cube can be shared across concurrent readers.
    """

    __slots__ = ("data", "spectra", "width", "height", "bands")

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(
                f"cube data must be 3-d (height, width, bands), got shape {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ValueError(f"cube dimensions must be positive, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("cube values must be finite (no NaN or Inf)")
        arr.flags.writeable = False
        self.data = arr
        self.height, self.width, self.bands = arr.shape
        self.spectra = arr.reshape(-1, self.bands)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def __repr__(self) -> str:
        return f"SpectralCube({self.width}x{self.height}x{self.bands})"


class LabelMap:
    """Dense non-negative region labels over the grid, one per pixel.

    Labels must be exactly {0, ..., count-1}, and ``sizes`` holds the pixel
    count of each, indexed by label and read-only. Per-class connectivity is
    a contract of the segmentation passes that produce label maps (it depends
    on the run's connectivity) and is recounted in the tests by
    `classes_are_connected` in tests/oracles.py, not enforced here.
    """

    __slots__ = ("labels", "count", "sizes")

    def __init__(self, labels, count: int | None = None) -> None:
        arr = np.array(labels)
        if arr.ndim != 2:
            raise ValueError(f"labels must be 2-d (height, width), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"label dimensions must be positive, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
        # a label at or above the pixel count leaves one unused; rejecting it
        # before the bincount keeps a huge label from allocating
        used = int(arr.max()) + 1
        if (arr.min() != 0 or used > arr.size
                or not (sizes := np.bincount(arr.ravel().astype(np.intp))).all()):
            raise ValueError("labels must be dense: used labels must be exactly 0..count-1")
        if count is not None and count != used:
            raise ValueError(f"declared count {count} does not match {used} used labels")
        arr = arr.astype(np.int32, copy=False)
        arr.flags.writeable = False
        sizes.flags.writeable = False
        self.labels = arr
        self.count = used
        self.sizes = sizes

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    def __repr__(self) -> str:
        return f"LabelMap({self.width}x{self.height}, count={self.count})"


def relabel_dense(raw) -> LabelMap:
    """Renumber provisional labels densely in order of first raster appearance."""
    arr = np.asarray(raw)
    if arr.ndim != 2:
        raise ValueError(f"provisional labels must be 2-d, got shape {arr.shape}")
    flat = arr.ravel()
    uniq, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    remap = np.empty(len(uniq), dtype=np.int32)
    remap[np.argsort(first, kind="stable")] = np.arange(len(uniq), dtype=np.int32)
    return LabelMap(remap[inverse].reshape(arr.shape))

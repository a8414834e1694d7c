"""Deterministic synthetic cubes for calibration and regression tests.

The tooth-saw cube is a 21x21x4 image whose first band ramps up and down
across columns by a fixed step while the remaining bands stay constant.
Rows are identical, so under the euclidean metric every vertical step costs
0 and every horizontal step costs exactly `step`. That calibration pins the
flat-zone counts: with step 10, a threshold of 9.9 admits no horizontal
edge (21 column zones) while 10 admits every edge (one zone).
"""

from __future__ import annotations

import numpy as np

from .grid import SpectralCube


def tooth_saw_cube(*, width: int = 21, height: int = 21, bands: int = 4, step: float = 10.0,
                   teeth: int = 3, constant_value: float = 100.0) -> SpectralCube:
    """Build the saw cube: band 0 is the saw profile along x, bands 1.. hold constant_value.

    The profile is `teeth` monotone ramps of width/teeth columns. It starts
    at 0 and moves by +-step per column, flipping direction after every ramp.
    """
    if width < 1 or height < 1 or bands < 1:
        raise ValueError("width, height and bands must be positive")
    if teeth < 1:
        raise ValueError("teeth must be positive")
    if width % teeth != 0:
        raise ValueError(f"width ({width}) must be a multiple of teeth ({teeth})")
    if not (step >= 0):
        raise ValueError(f"step must be >= 0, got {step}")
    ramp = width // teeth
    profile = np.zeros(width)
    for x in range(1, width):
        direction = 1.0 if ((x - 1) // ramp) % 2 == 0 else -1.0
        profile[x] = profile[x - 1] + direction * step
    data = np.full((height, width, bands), constant_value)
    data[:, :, 0] = profile
    return SpectralCube(data)

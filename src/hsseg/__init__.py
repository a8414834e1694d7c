"""Top-down hyperspectral image segmentation.

A coarse partition into quasi-flat zones (bounded per-step spectral
distance) is refined class by class with two second-order criteria:
amplitude-bounded regions grown from median seeds, and geodesic balls of
bounded path-summed distance. Euclidean and chi-squared spectral metrics
plug into every pass.
"""

from .errors import (CubeFormatError, DegenerateMarginalError, HssegError,
                     RegionSizeCapError)
from .eta_regions import eta_bounded_regions
from .flatzones import lambda_flat_zones
from .grid import Connectivity, LabelMap, SpectralCube, relabel_dense
from .io import (SegmentationReport, append_sweep_row, load_cube, read_cube,
                 read_graymap_stack, write_cube, write_labels, write_report)
from .metrics import EdgeWeights, MetricKind, build_edge_weights, build_metric
from .mu_balls import mu_geodesic_balls
from .pipeline import Pipeline, prepare
from .seeds import SeedOrder, order_classes
from .synth import tooth_saw_cube

__version__ = "0.1.0"

__all__ = [
    "Connectivity", "CubeFormatError", "DegenerateMarginalError", "EdgeWeights",
    "HssegError", "LabelMap", "MetricKind", "Pipeline", "RegionSizeCapError",
    "SeedOrder", "SegmentationReport", "SpectralCube", "append_sweep_row",
    "build_edge_weights", "build_metric", "eta_bounded_regions",
    "lambda_flat_zones", "load_cube", "mu_geodesic_balls", "order_classes",
    "prepare", "read_cube", "read_graymap_stack", "relabel_dense",
    "tooth_saw_cube", "write_cube", "write_labels", "write_report",
]

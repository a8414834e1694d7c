"""Top-down hyperspectral image segmentation.

A coarse partition into quasi-flat zones (bounded per-step spectral
distance) is refined class by class with two second-order criteria:
amplitude-bounded regions grown from median seeds, and geodesic balls of
bounded path-summed distance. Euclidean and chi-squared spectral metrics
plug into every pass.
"""

from .errors import (BadHeaderError, BadMagicError, CubeFormatError,
                     DegenerateMarginalError, HssegError, RegionSizeCapError,
                     TruncatedFileError)
from .eta_regions import EtaParams, eta_bounded_regions
from .flatzones import LambdaParams, lambda_flat_zones
from .grid import (Connectivity, LabelMap, PixelIndex, SpectralCube,
                   classes_are_connected, is_refinement, neighbors,
                   region_sizes, relabel_dense)
from .io import (SegmentationReport, append_sweep_row, read_cube,
                 read_graymap_stack, read_labels, write_cube, write_labels,
                 write_report)
from .metrics import (EdgeWeights, MetricKind, SpectralMetric,
                      build_edge_weights, build_metric)
from .mu_balls import MuParams, geodesic_ball, mu_geodesic_balls
from .seeds import DEFAULT_REGION_CAP, ClassOrdering, SeedOrder, order_classes
from .synth import ToothSawSpec, tooth_saw_cube, tooth_saw_profile

__version__ = "0.1.0"

__all__ = [
    "BadHeaderError", "BadMagicError", "ClassOrdering", "Connectivity",
    "CubeFormatError", "DEFAULT_REGION_CAP", "DegenerateMarginalError",
    "EdgeWeights", "EtaParams", "HssegError", "LabelMap", "LambdaParams",
    "MetricKind", "MuParams", "PixelIndex", "RegionSizeCapError",
    "SeedOrder", "SegmentationReport", "SpectralCube", "SpectralMetric",
    "TruncatedFileError", "ToothSawSpec", "append_sweep_row",
    "build_edge_weights", "build_metric", "classes_are_connected",
    "eta_bounded_regions", "geodesic_ball", "is_refinement",
    "lambda_flat_zones", "mu_geodesic_balls", "neighbors", "order_classes",
    "read_cube", "read_graymap_stack", "read_labels", "region_sizes",
    "relabel_dense", "tooth_saw_cube", "tooth_saw_profile", "write_cube",
    "write_labels", "write_report",
]

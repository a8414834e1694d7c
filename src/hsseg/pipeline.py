"""One run of the top-down method: lambda-flat zones, then a pass inside each zone.

`prepare` builds what every pass of a run shares, once: the metric, the
neighbour table and the flat zones. `Pipeline.refine` runs one eta or mu
pass over them. The seed ordering is built on the first refine only, so a
flat-zone run orders nothing and a sweep orders once for all its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eta_regions import eta_bounded_regions
from .flatzones import lambda_flat_zones
from .grid import Connectivity, LabelMap, SpectralCube
from .metrics import EdgeWeights, MetricKind, build_edge_weights, build_metric
from .mu_balls import mu_geodesic_balls
from .seeds import SeedOrder, order_classes


def _check_nonneg(name: str, value: float) -> None:
    if math.isnan(value) or value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True, eq=False)
class Pipeline:
    """The metric, neighbour table and flat zones of one run, and its seed order.

    seed_order is None for a run that only needs the flat zones. Classes
    above seeds.MAX_REGION_SIZE pixels fail the ordering, before any
    distance of it is computed.
    """

    metric: SpectralCube
    edge_weights: EdgeWeights
    flat: LabelMap
    seed_order: SeedOrder | None

    @cached_property
    def ordering(self) -> np.ndarray:
        """The seed sequence of every flat zone, shared by both passes and all values."""
        if self.seed_order is None:
            raise ValueError("refinement needs a seed order")
        return order_classes(self.flat, self.metric, self.seed_order)

    def refine(self, algo: str, value: float) -> LabelMap:
        """Eta-bounded regions ("eta") or mu-geodesic balls ("mu") of bound value."""
        if algo not in ("eta", "mu"):
            raise ValueError(f"unknown refinement {algo!r}, expected 'eta' or 'mu'")
        _check_nonneg(algo, value)
        if algo == "eta":
            return eta_bounded_regions(self.metric, self.edge_weights, self.flat,
                                       self.ordering, value)
        return mu_geodesic_balls(self.edge_weights, self.flat, self.ordering, value)


def prepare(cube: SpectralCube, kind: MetricKind, lam: float, connectivity: Connectivity,
            seed_order: SeedOrder | None) -> Pipeline:
    """Build the metric, the neighbour table and the lambda-flat zones of cube.

    lam = inf makes the whole image one class.
    """
    _check_nonneg("lambda", lam)
    metric = build_metric(cube, kind)
    edge_weights = build_edge_weights(metric, connectivity)
    flat = lambda_flat_zones(metric, edge_weights, lam)
    return Pipeline(metric, edge_weights, flat, seed_order)

"""The oracles stay independent of the library code they check."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings

from hsseg import MetricKind, build_metric

import oracles
from conftest import cubes, positive_cubes


def test_oracles_import_only_types_from_hsseg():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hsseg"):
            assert node.module == "hsseg", f"oracles import from {node.module}"
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("hsseg") for a in node.names)
    assert imported == {"Connectivity", "LabelMap"}


@given(cubes(max_bands=8), positive_cubes(max_bands=8))
@settings(max_examples=80)
def test_oracle_coordinates_are_bitwise_the_library_coordinates(cube, positive):
    # equal bits, so thresholds and seed near-ties decide alike on both sides
    for c, kind in ((cube, MetricKind.EUCLIDEAN), (positive, MetricKind.EUCLIDEAN),
                    (positive, MetricKind.CHI_SQUARED)):
        mine = np.asarray(oracles.coordinates(c, kind))
        assert mine.tobytes() == build_metric(c, kind).data.tobytes()

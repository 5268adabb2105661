"""The names perfbench binds on the package resolve, and the array face
returns what its workloads index.

``perfbench/tracing.py`` rebinds each ``TARGETS`` entry on its module, and
``perfbench/workloads.py`` reads ``shearwave.paths`` and the package
names; both are read here as source, without running perfbench.  The
``sweep`` workload indexes ``points[:, 0]`` of the portrait arms and
``orbits`` calls ``.tobytes()`` on the trajectory columns, so those are
numpy arrays.
"""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import shearwave
from shearwave.cli import PRESETS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _targets():
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def _attributes(tree, alias):
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == alias})


TARGETS = [(module, attr) for module, attr, _, _ in _targets()]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_every_traced_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_workload_names_resolve():
    tree = _tree("workloads.py")
    paths_names = _attributes(tree, "swpaths")
    assert {"LAYERS", "TRAJECTORY_HEADER", "drift_csv_rows",
            "trajectory_csv_rows"} <= set(paths_names)
    for name in paths_names:
        assert hasattr(shearwave.paths, name), name
    for name in _attributes(tree, "sw"):
        assert hasattr(shearwave, name), name


def test_array_face_returns_arrays():
    p = shearwave.from_mapping(PRESETS["fig2"]["params"])
    port = shearwave.build_phase_portrait(p)
    assert port.separatrices
    for arm in port.separatrices:
        assert isinstance(arm.points, np.ndarray) and arm.points.shape[1] == 2
    co, shifted = shearwave.SteadyCoeffs.from_params(p).normalized()
    period = 2.0 * math.pi / co.f
    for method in ("adaptive", "midpoint"):
        traj = shearwave.integrate_steady(math.pi, 0.3, co, period, method=method,
                                          shifted=shifted)
        for column in (traj.t, traj.X, traj.Y, traj.x, traj.y, traj.H):
            assert isinstance(column, np.ndarray) and column.dtype == np.float64

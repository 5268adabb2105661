"""Each command loads only what it runs.

- Every command runs on numpy alone: the README commands exit 0 with
  every scipy import blocked, and the commands that never integrate do not
  load scipy even where it is installed.
- None of the six README commands loads numpy, ``dataclasses`` (with its
  ``inspect``) or the fields module, and all six exit 0 with every numpy
  import blocked; ``validate --grid`` still writes its grid through numpy,
  and where numpy cannot be imported it exits 2 before any check runs.
- ``import shearwave`` loads no numpy, and the ``dispersion`` and
  ``bifurcation`` commands load neither numpy nor the fields, portrait,
  paths or DOP853 modules.
- ``drift`` (with ``--find-closed``) and ``paths`` (default or file seeds)
  run on the numpy-free ``steady`` and ``drift`` modules and the DOP853
  port: they load neither numpy nor the fields, portrait or paths modules.
- ``portrait`` (every format) runs on the numpy-free ``steady`` and
  ``phase`` modules: it loads neither numpy nor the fields, portrait,
  paths, drift or DOP853 modules.
- ``validate``, ``portrait`` and ``bifurcation`` load neither the paths
  module nor the DOP853 port.
- The implicit-midpoint rule in ``drift`` runs with every numpy import
  blocked, and ``import shearwave.paths`` does not load the fields module.
- Every public name still resolves from the package, through
  ``from shearwave import *`` and in ``dir(shearwave)``.

Each check runs in a fresh interpreter, since the test process itself has
every module loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shearwave

SRC = str(Path(shearwave.__file__).resolve().parent.parent)
SCIPY_PARTS = ("scipy.optimize", "scipy.integrate")
NOT_FOR_DISPERSION = ("numpy", "shearwave.fields", "shearwave.portrait",
                      "shearwave.paths", "shearwave.dop853")
NOT_FOR_PORTRAITS = ("shearwave.paths", "shearwave.dop853")
NOT_FOR_DRIFT = ("numpy", "shearwave.fields", "shearwave.portrait",
                 "shearwave.paths")
NOT_FOR_PORTRAIT = NOT_FOR_DRIFT + ("shearwave.drift", "shearwave.dop853")
NOT_FOR_README = ("numpy", "dataclasses", "inspect", "shearwave.fields")

#: Runs one CLI command, then reports its exit code and every loaded module.
PROBE = """
import json, sys
from shearwave.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(sys.modules)}))
"""


#: Makes ``import scipy`` and every ``import scipy.*`` raise ImportError.
BLOCK_SCIPY = """
import sys
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, BlockScipy())
"""

#: Makes ``import numpy`` and every ``import numpy.*`` raise ImportError.
BLOCK_NUMPY = """
import sys
class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, BlockNumpy())
"""

DISPERSION = ("dispersion", "--g", "9.81", "--h", "1", "--k", "1", "--omega",
              "-6", "--branch", "minus")
README_COMMANDS = [
    DISPERSION,
    ("portrait", "--preset", "fig2", "--format", "csv,json,svg", "--out", "out"),
    ("paths", "--preset", "fig1", "--periods", "20", "--out", "out"),
    ("drift", "--preset", "fig4-left", "--find-closed", "--out", "out"),
    ("bifurcation", "--preset", "fig3", "--out", "out"),
    ("validate", "--preset", "fig2"),
]
NON_INTEGRATING = [
    DISPERSION,
    ("validate", "--preset", "fig2"),
    ("portrait", "--preset", "fig2", "--format", "csv,json,svg"),
    ("bifurcation", "--preset", "fig3"),
]


def run_fresh(tmp_path, *argv, prelude="", probe=PROBE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", prelude + probe, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(result, names):
    return sorted(set(names) & set(result["loaded"]))


@pytest.mark.parametrize("argv", NON_INTEGRATING, ids=lambda argv: argv[0])
def test_non_integrating_commands_leave_scipy_unloaded(tmp_path, argv):
    result = run_fresh(tmp_path, *argv)
    assert result["code"] == 0
    assert loaded(result, SCIPY_PARTS) == []


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_commands_run_with_scipy_blocked(tmp_path, argv):
    result = run_fresh(tmp_path, *argv, prelude=BLOCK_SCIPY)
    assert result["code"] == 0
    assert loaded(result, SCIPY_PARTS) == []


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_commands_load_no_numpy_dataclasses_or_fields(tmp_path, argv):
    result = run_fresh(tmp_path, *argv)
    assert result["code"] == 0
    assert loaded(result, NOT_FOR_README) == []


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_commands_run_with_numpy_blocked(tmp_path, argv):
    result = run_fresh(tmp_path, *argv, prelude=BLOCK_NUMPY)
    assert result["code"] == 0
    assert loaded(result, ("numpy",)) == []


def test_validate_grid_still_writes_through_numpy(tmp_path):
    result = run_fresh(tmp_path, "validate", "--preset", "fig2", "--grid", "grid.csv")
    assert result["code"] == 0
    assert loaded(result, ("numpy", "shearwave.fields")) == ["numpy", "shearwave.fields"]
    assert (tmp_path / "grid.csv").read_text().startswith("x,y,t,u,v,P,eta_flag\n")


def test_validate_grid_without_numpy_is_refused_up_front(tmp_path):
    # A numpy package that cannot be imported shadows the installed one.
    shadow = tmp_path / "shadow" / "numpy"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text('raise ImportError("numpy is not installed")\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(shadow.parent), SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "shearwave", "validate", "--preset", "fig2", "--grid", "g.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""                          # no check was run
    assert proc.stderr.splitlines() == ["error: --grid needs numpy, which cannot be imported"]
    assert not (tmp_path / "g.csv").exists()


def test_package_import_loads_no_numpy(tmp_path):
    result = run_fresh(tmp_path, probe="""
import json, sys
import shearwave
print(json.dumps({"loaded": sorted(sys.modules)}))
""")
    assert loaded(result, NOT_FOR_DISPERSION) == []


def test_dispersion_loads_no_numpy_and_no_solver_module(tmp_path):
    result = run_fresh(tmp_path, *DISPERSION)
    assert result["code"] == 0
    assert loaded(result, NOT_FOR_DISPERSION) == []


def test_bifurcation_loads_no_numpy_and_no_array_module(tmp_path):
    result = run_fresh(tmp_path, *README_COMMANDS[4])
    assert result["code"] == 0
    assert loaded(result, NOT_FOR_DISPERSION) == []


def test_drift_loads_no_numpy_and_no_array_module(tmp_path):
    result = run_fresh(tmp_path, *README_COMMANDS[3])
    assert result["code"] == 0
    assert loaded(result, NOT_FOR_DRIFT) == []
    assert "shearwave.drift" in result["loaded"]


def test_portrait_loads_no_numpy_and_no_array_module(tmp_path):
    result = run_fresh(tmp_path, *README_COMMANDS[1])
    assert result["code"] == 0
    assert loaded(result, NOT_FOR_PORTRAIT) == []
    assert "shearwave.phase" in result["loaded"]


@pytest.mark.parametrize("seeds", [None, "3.141592653589793 0.5\n0.0 0.2\n"],
                         ids=["default-seeds", "seeds-file"])
def test_paths_loads_no_numpy_and_no_array_module(tmp_path, seeds):
    argv = README_COMMANDS[2]
    if seeds is not None:
        (tmp_path / "seeds.txt").write_text(seeds, encoding="utf-8")
        argv += ("--seeds", "seeds.txt")
    result = run_fresh(tmp_path, *argv)
    assert result["code"] == 0
    assert loaded(result, NOT_FOR_DRIFT) == []
    assert "shearwave.drift" in result["loaded"]


@pytest.mark.parametrize("argv", NON_INTEGRATING[1:], ids=lambda argv: argv[0])
def test_portrait_commands_load_no_path_integrator(tmp_path, argv):
    result = run_fresh(tmp_path, *argv)
    assert result["code"] == 0
    assert loaded(result, NOT_FOR_PORTRAITS) == []


def test_midpoint_rule_runs_with_numpy_blocked(tmp_path):
    result = run_fresh(tmp_path, prelude=BLOCK_NUMPY, probe="""
import json, math, sys
from shearwave import from_mapping
from shearwave.cli import PRESETS
from shearwave.drift import midpoint_trajectory
from shearwave.steady import SteadyCoeffs
co, shifted = SteadyCoeffs.from_params(from_mapping(PRESETS["fig2"]["params"])).normalized()
period = 2.0 * math.pi / co.f
traj = midpoint_trajectory(math.pi, 0.3, co, 10.0 * period, period / 200.0, shifted)
print(json.dumps({"rows": len(traj.t), "truncated": traj.truncated,
                  "drift": traj.h_drift_scaled, "loaded": sorted(sys.modules)}))
""")
    assert result["rows"] == 2001 and not result["truncated"]
    assert result["drift"] < 1e-2
    assert loaded(result, ("numpy",)) == []


def test_paths_module_loads_no_fields(tmp_path):
    result = run_fresh(tmp_path, probe="""
import json, sys
import shearwave.paths
print(json.dumps({"loaded": sorted(sys.modules)}))
""")
    assert "shearwave.paths" in result["loaded"]
    assert loaded(result, ("shearwave.fields",)) == []


def test_every_public_name_resolves_from_a_fresh_package(tmp_path):
    result = run_fresh(tmp_path, probe="""
import json
import shearwave
listed = set(dir(shearwave))
star = {}
exec("from shearwave import *", star)
print(json.dumps({
    "all": shearwave.__all__,
    "unresolved": [n for n in shearwave.__all__ if getattr(shearwave, n, None) is None],
    "not_bound_by_star": [n for n in shearwave.__all__ if n not in star],
    "not_in_dir": [n for n in shearwave.__all__ if n not in listed],
    "submodules": [shearwave.portrait.__name__, shearwave.paths.__name__],
    "unknown_name_raises": not hasattr(shearwave, "no_such_name"),
}))
""")
    assert len(result["all"]) == len(set(result["all"])) == 46
    assert "TraceError" not in result["all"] and "to_physical" not in result["all"]
    assert result["unresolved"] == []
    assert result["not_bound_by_star"] == []
    assert result["not_in_dir"] == []
    assert result["submodules"] == ["shearwave.portrait", "shearwave.paths"]
    assert result["unknown_name_raises"]

"""Commands that do not integrate run without loading scipy.optimize or
scipy.integrate; the integrating commands load scipy.integrate on first
use.  Each command runs ``cli.main`` in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shearwave

SRC = str(Path(shearwave.__file__).resolve().parent.parent)
SCIPY_PARTS = ("scipy.optimize", "scipy.integrate")

PROBE = """
import json, sys
from shearwave.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code,
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (SCIPY_PARTS,)


def run_fresh(tmp_path, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ("dispersion", "--g", "9.81", "--h", "1", "--k", "1", "--omega", "-6",
     "--branch", "minus"),
    ("validate", "--preset", "fig2"),
    ("portrait", "--preset", "fig2", "--format", "csv,json,svg"),
    ("bifurcation", "--preset", "fig3"),
], ids=lambda argv: argv[0])
def test_non_integrating_commands_leave_scipy_unloaded(tmp_path, argv):
    result = run_fresh(tmp_path, *argv)
    assert result == {"code": 0, "loaded": []}


@pytest.mark.parametrize("argv", [
    ("paths", "--preset", "fig1", "--periods", "1"),
    ("drift", "--preset", "fig1", "--levels", "3"),
], ids=lambda argv: argv[0])
def test_integrating_commands_load_scipy_integrate_on_demand(tmp_path, argv):
    result = run_fresh(tmp_path, *argv)
    assert result["code"] == 0
    assert "scipy.integrate" in result["loaded"]

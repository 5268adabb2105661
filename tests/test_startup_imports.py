"""Every command runs on numpy alone: the README commands exit 0 with
every scipy import blocked, and the commands that never integrate do not
load scipy even where it is installed.  Each command runs ``cli.main`` in
a fresh interpreter."""

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


#: Makes ``import scipy`` and every ``import scipy.*`` raise ImportError.
BLOCK_SCIPY = """
import sys
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, BlockScipy())
"""

README_COMMANDS = [
    ("dispersion", "--g", "9.81", "--h", "1", "--k", "1", "--omega", "-6",
     "--branch", "minus"),
    ("portrait", "--preset", "fig2", "--format", "csv,json,svg", "--out", "out"),
    ("paths", "--preset", "fig1", "--periods", "20", "--out", "out"),
    ("drift", "--preset", "fig4-left", "--find-closed", "--out", "out"),
    ("bifurcation", "--preset", "fig3", "--out", "out"),
    ("validate", "--preset", "fig2"),
]


def run_fresh(tmp_path, *argv, prelude=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", prelude + PROBE, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
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


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_commands_run_with_scipy_blocked(tmp_path, argv):
    result = run_fresh(tmp_path, *argv, prelude=BLOCK_SCIPY)
    assert result == {"code": 0, "loaded": []}

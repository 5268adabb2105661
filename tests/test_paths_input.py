"""``shearwave paths`` refuses what it cannot integrate with exit 2 and one
``error:`` line naming the bad value: a non-finite start point, a start
above the hyperbolic guard, a non-finite end time or tolerance, and a
seeds line that is not two numbers.

A non-finite start or end time would otherwise integrate without end, so
each case runs the CLI in a fresh process under a timeout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shearwave

SRC = str(Path(shearwave.__file__).resolve().parent.parent)

#: (seeds file text or None, extra flags, word the error line must contain)
CASES = {
    "seed X0 nan": ("nan 0.5\n", [], "start point"),
    "seed Y0 nan": ("3.14 nan\n", [], "start point"),
    "seed X0 inf": ("inf 0.5\n", [], "start point"),
    "seed Y0 -inf": ("3.14 -inf\n", [], "start point"),
    "seed Y0 800": ("0 800\n", [], "800"),
    "seed not a number": ("3.14 0.5\n1 abc\n", [], "line 2"),
    "periods inf": (None, ["--periods", "inf"], "t_end"),
    "t-end inf": (None, ["--t-end", "inf"], "t_end"),
    "rtol nan": (None, ["--rtol", "nan"], "rtol"),
    "rtol -1": (None, ["--rtol", "-1"], "rtol"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_paths_refuses_with_exit_2(tmp_path, case):
    seeds, flags, word = CASES[case]
    argv = ["paths", "--preset", "fig1", "--out", str(tmp_path / "out"), "--quiet"]
    if seeds is not None:
        (tmp_path / "seeds.txt").write_text(seeds, encoding="utf-8")
        argv += ["--seeds", str(tmp_path / "seeds.txt")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "shearwave", *argv, *flags],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    err = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert len(err) == 1 and err[0].startswith("error: ") and word in err[0]
    assert not (tmp_path / "out").exists()

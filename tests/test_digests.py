"""Committed sha256 digests of the preset artifacts.

The determinism acceptance test compares a run with a rerun, so it cannot
see a result that changed between versions of the code.  This test
compares the artifacts with ``digests.json``, a manifest written on
purpose, and names every file whose bytes differ from it.

Regenerate the manifest only when an output is meant to change, and say
why in CHANGES.md::

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from shearwave import SteadyCoeffs, from_mapping, integrate_steady
from shearwave.cli import PRESETS, main
from shearwave.paths import trajectory_csv_rows

MANIFEST = Path(__file__).with_name("digests.json")

#: The job set of test_criterion_12_determinism.
DETERMINISM_JOBS = {
    "fig1": [["portrait", "--format", "csv,json,svg"], ["paths", "--periods", "2"]],
    "fig2": [["portrait"], ["drift", "--levels", "7"]],
    "fig3": [["bifurcation", "--steps", "13"]],
    "fig4-left": [["drift", "--levels", "5"]],
    "fig4-right": [["drift", "--levels", "5"]],
}


def _stack() -> dict:
    # The program runs on numpy alone, so scipy's version cannot move a byte.
    return {"python": platform.python_version(), "numpy": np.__version__,
            "libc": " ".join(platform.libc_ver()), "machine": platform.machine()}


def _run(argv):
    code = main(argv)
    assert code == 0, f"{argv} exited {code}"


def _midpoint_rows() -> list[str]:
    """fig2, normalized frame, from (pi, 0.3) over 10 periods at period/400."""
    p = from_mapping(PRESETS["fig2"]["params"])
    co, shifted = SteadyCoeffs.from_params(p).normalized()
    period = 2.0 * math.pi / co.f
    traj = integrate_steady(math.pi, 0.3, co, 10.0 * period, method="midpoint",
                            dt=period / 400.0, shifted=shifted)
    return list(trajectory_csv_rows(traj))


def artifact_digests(work: Path) -> dict[str, str]:
    """Write every covered artifact under ``work``; map its name to its sha256."""
    runs = work / "runs"
    for preset, commands in DETERMINISM_JOBS.items():
        for command in commands:
            _run(command + ["--preset", preset, "--out", str(runs), "--quiet"])
    closed = work / "closed"
    _run(["drift", "--preset", "fig4-left", "--levels", "5", "--find-closed",
          "--out", str(closed), "--quiet"])
    (work / "midpoint").mkdir()
    (work / "midpoint" / "fig2.csv").write_text(
        "".join(row + "\n" for row in _midpoint_rows()), encoding="utf-8")
    grid = work / "validate" / "fig2_grid.csv"
    grid.parent.mkdir()
    _run(["validate", "--preset", "fig2", "--grid", str(grid)])
    return {path.relative_to(work).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()}


def test_artifact_digests_match_manifest(tmp_path, capsys):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["stack"] != _stack():
        pytest.skip(f"digests were recorded with {manifest['stack']}, "
                    f"this run uses {_stack()}; last-ulp library differences "
                    "change output bytes")
    got = artifact_digests(tmp_path)
    capsys.readouterr()
    want = manifest["sha256"]
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, "artifacts differing from tests/digests.json: " + ", ".join(changed)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = artifact_digests(Path(tmp))
    MANIFEST.write_text(json.dumps({"stack": _stack(), "sha256": digests},
                                   indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)

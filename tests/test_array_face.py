"""One compute path: the CLI writes with the numpy-free ``phase`` and
``drift`` modules, and the array face (``portrait.build_phase_portrait``,
``paths.integrate_steady``) wraps the same results into numpy arrays, so
the library exporters applied to the array face reproduce the CLI's files
byte for byte."""

import math

import numpy as np
import pytest

from shearwave import SteadyCoeffs, build_phase_portrait, from_mapping, integrate_steady
from shearwave.cli import PRESETS, _default_seeds, main
from shearwave.phase import (isocline_csv_rows, portrait_json, portrait_svg,
                             separatrix_csv_rows)
from shearwave.paths import trajectory_csv_rows


def rows_text(rows) -> str:
    return "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("preset", ["fig2", "fig4-left"])
def test_portrait_files_equal_the_exporters_on_the_array_face(tmp_path, preset):
    assert main(["portrait", "--preset", preset, "--format", "csv,json,svg",
                 "--out", str(tmp_path), "--quiet"]) == 0
    port = build_phase_portrait(from_mapping(PRESETS[preset]["params"]))
    for arm in port.separatrices:
        assert isinstance(arm.points, np.ndarray) and arm.points.shape[1] == 2
    for branch in port.isoclines:
        assert isinstance(branch.samples, np.ndarray) and branch.samples.shape[1] == 2
    expected = {
        "portrait.json": portrait_json(port),
        "isoclines.csv": rows_text(isocline_csv_rows(port)),
        "separatrices.csv": rows_text(separatrix_csv_rows(port)),
        "portrait.svg": portrait_svg(port),
    }
    for name, text in expected.items():
        assert (tmp_path / preset / name).read_bytes() == text.encode("utf-8"), name


def test_trajectory_files_equal_the_rows_of_integrate_steady(tmp_path):
    assert main(["paths", "--preset", "fig1", "--periods", "20",
                 "--out", str(tmp_path), "--quiet"]) == 0
    p = from_mapping(PRESETS["fig1"]["params"])
    co, shifted = SteadyCoeffs.from_params(p).normalized()
    t_end = 20 * 2.0 * math.pi / p.f
    seeds = _default_seeds(p)
    assert len(list((tmp_path / "fig1").glob("trajectory_*.csv"))) == len(seeds)
    for idx, (X0, Y0) in enumerate(seeds):
        traj = integrate_steady(X0, Y0, co, t_end, shifted=shifted)
        assert isinstance(traj.H, np.ndarray) and isinstance(traj.t, np.ndarray)
        path = tmp_path / "fig1" / f"trajectory_{idx:03d}.csv"
        assert path.read_bytes() == rows_text(trajectory_csv_rows(traj)).encode("utf-8")

"""The sweep of ``bifurcation``: from 0 to the flow's vorticity in 61 steps,
except that a preset with a scan of its own (fig3: 0 to -6) sweeps it for
its own vorticity.  Where ``--omega`` or a scenario file changes the
vorticity, the sweep ends at that vorticity; ``--omega-start``,
``--omega-stop`` and ``--steps`` override either.
"""

import json

import pytest

from shearwave.cli import main


def summary(tmp_path, *argv):
    assert main(["bifurcation", *argv, "--out", str(tmp_path), "--quiet"]) == 0
    (path,) = tmp_path.glob("*/bifurcation.json")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv, omega_range, steps", [
    (["--preset", "fig3"], [0.0, -6.0], 61),
    (["--preset", "fig3", "--omega", "-1.2"], [0.0, -6.0], 61),
    (["--preset", "fig3", "--omega", "-3"], [0.0, -3.0], 61),
    (["--preset", "fig1", "--omega", "-3"], [0.0, -3.0], 61),
    (["--preset", "fig3", "--omega", "-3", "--omega-stop", "-5", "--steps", "5"],
     [0.0, -5.0], 5),
])
def test_sweep_range(argv, omega_range, steps, tmp_path):
    result = summary(tmp_path, *argv)
    assert result["omega_range"] == omega_range and result["steps"] == steps


def test_a_scenario_file_vorticity_ends_the_presets_sweep(tmp_path):
    scenario = tmp_path / "sc.txt"
    scenario.write_text("omega = -2\n", encoding="utf-8")
    result = summary(tmp_path / "out", "--preset", "fig3", "--scenario", str(scenario))
    assert result["omega_range"] == [0.0, -2.0]

"""Every command but ``dispersion`` works in the bed frame s = 0.

argparse refuses ``--s`` on the other five commands, and a scenario file
with s != 0 exits 2 on each of them with one ``error:`` line that prints
the value, before anything is written.  ``dispersion --s`` shifts the
speed by s*sqrt(g*h): the dispersion relation fixes c - s*sqrt(g*h), so
this is the closed form, not the code's formula.  The shift is Galilean:
it changes c and f = k*c and nothing else, so ``A`` is the bed frame's.
"""

import inspect
import json
import math

import pytest

from shearwave import UnsupportedConfig, WaveParams, bifurcation_scan
from shearwave.cli import EXIT_BAD_INPUT, EXIT_OK, main
from test_cli import out_option

BED_FRAME_COMMANDS = ("portrait", "paths", "drift", "bifurcation", "validate")
DISPERSION = ["dispersion", "--g", "9.81", "--h", "1", "--k", "1", "--omega", "-6",
              "--branch", "minus", "--a", "0.01"]


@pytest.mark.parametrize("command", BED_FRAME_COMMANDS)
def test_s_option_is_refused_by_argparse(command, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", "fig2", "--s", "0", *out_option([command], tmp_path)])
    assert exc.value.code == EXIT_BAD_INPUT
    assert "unrecognized arguments: --s" in capsys.readouterr().err


@pytest.mark.parametrize("command", BED_FRAME_COMMANDS)
def test_moving_frame_scenario_exits_2_naming_s(command, capsys, tmp_path):
    scenario = tmp_path / "moving.json"
    scenario.write_text(json.dumps({"g": 9.81, "h": 1.0, "k": 1.0, "omega": -6.0,
                                    "a": 0.01, "s": 0.1, "branch": "minus"}),
                        encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--scenario", str(scenario), *out_option([command], out)])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_INPUT and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: s = 0.1 ")
    assert not out.exists()


def test_dispersion_s_adds_s_sqrt_gh_to_the_speed(capsys):
    argv = ["dispersion", "--g", "9.81", "--h", "2", "--k", "1.5", "--omega", "-1"]
    assert main(argv) == EXIT_OK
    bed = json.loads(capsys.readouterr().out)
    assert main([*argv, "--s", "0.5"]) == EXIT_OK
    moving = json.loads(capsys.readouterr().out)
    assert moving["c"] - bed["c"] == pytest.approx(0.5 * math.sqrt(9.81 * 2.0), rel=1e-14)
    assert moving["residual"] < 1e-12
    assert bed["regime"] is not None and moving["regime"] is None


def test_dispersion_s_keeps_the_bed_frame_amplitude(capsys):
    # The kinematic surface condition with U(h) = s*sqrt(g*h) - omega*h:
    # A*sinh(k*h) = a*(f - k*U(h)), the same for every s.
    assert main([*DISPERSION, "--s", "0"]) == EXIT_OK
    bed = json.loads(capsys.readouterr().out)
    assert main([*DISPERSION, "--s", "0.5"]) == EXIT_OK
    moving = json.loads(capsys.readouterr().out)
    assert moving["A"] == bed["A"]
    U_h = 0.5 * math.sqrt(9.81) - (-6.0)
    assert moving["A"] * math.sinh(1.0) == pytest.approx(0.01 * (moving["f"] - U_h),
                                                         rel=1e-14)


@pytest.mark.parametrize("s,message", [("nan", "s must be finite, got nan"),
                                       ("inf", "s must be finite, got inf"),
                                       ("1e308", "c must be finite, got inf")])
def test_dispersion_non_finite_s_or_shifted_speed_exits_2(s, message, capsys):
    assert main([*DISPERSION, "--s", s]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_library_refuses_s_once_with_its_value():
    with pytest.raises(UnsupportedConfig, match=r"^s = 0\.25 "):
        WaveParams.solve(9.81, 1.0, 1.0, 0.0, s=0.25)
    assert WaveParams.solve(9.81, 1.0, 1.0, 0.0, s=0.0) == WaveParams.solve(9.81, 1.0, 1.0, 0.0)
    assert "s" not in WaveParams._fields
    assert "s" not in inspect.signature(bifurcation_scan).parameters

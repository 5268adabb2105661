"""Typed refusals of inputs the program does not take: each command exits 2
with one ``error:`` line, and each library call raises ``DomainError``.

A right-going wave is needed for drift (c > 0), an amplitude may not be
negative, a JSON scenario file holds an object, a branch is "plus" or
"minus", and a height is a number at or above the bed (not NaN).
"""

import math

import pytest

from shearwave import (DomainError, field_identity_residuals, from_mapping, pressure,
                       velocity)
from shearwave.cli import EXIT_BAD_INPUT, PRESETS, _identity_maxima, main


@pytest.mark.parametrize("argv,message", [
    (["drift", "--preset", "fig2", "--omega", "-3"],
     "drift analysis assumes a right-going wave (c > 0)"),
    (["portrait", "--preset", "fig1", "--a", "-0.1"],
     "amplitude must be nonnegative, got -0.1"),
])
def test_command_refuses_its_input(argv, message, capsys, tmp_path):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_json_scenario_must_hold_an_object(capsys, tmp_path):
    scenario = tmp_path / "pair.json"
    scenario.write_text("[1, 2]\n")
    out = tmp_path / "out"
    assert main(["portrait", "--scenario", str(scenario), "--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: JSON parameter file must contain an object\n"
    assert not out.exists()


def test_replace_refuses_an_unknown_branch():
    p = from_mapping(PRESETS["fig1"]["params"])
    with pytest.raises(DomainError, match="branch must be one of"):
        p._replace(branch="up")


@pytest.mark.parametrize("report", [velocity, pressure, field_identity_residuals,
                                    _identity_maxima])
def test_nan_height_is_refused(report):
    p = from_mapping(PRESETS["fig2"]["params"])
    with pytest.raises(DomainError, match="nonnegative"):
        report([0.0, 0.0], [0.0, 0.0], [0.5, math.nan], p)

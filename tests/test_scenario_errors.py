"""Scenario files that cannot be read as numbers end in exit 2 with one
``error:`` line, never in a traceback."""

import json

import pytest

from shearwave.cli import EXIT_BAD_INPUT, main

VALID = {"g": 9.81, "h": 1.0, "k": 1.0, "omega": 0.0, "a": 0.01}


def run_validate(capsys, path):
    code = main(["validate", "--scenario", str(path), "--quiet"])
    captured = capsys.readouterr()
    return code, captured.err.splitlines()


@pytest.mark.parametrize("suffix", [".json", ".txt"])
def test_truncated_json_exits_2(capsys, tmp_path, suffix):
    scen = tmp_path / f"bad{suffix}"
    scen.write_text('{"g": 9.81, "h": 1,', encoding="utf-8")
    code, err = run_validate(capsys, scen)
    assert code == EXIT_BAD_INPUT
    assert len(err) == 1 and err[0].startswith("error: malformed JSON")


@pytest.mark.parametrize("suffix", [".json", ".kv"])
def test_non_utf8_file_exits_2(capsys, tmp_path, suffix):
    scen = tmp_path / f"bad{suffix}"
    scen.write_bytes(b"\xff\xfe")
    code, err = run_validate(capsys, scen)
    assert code == EXIT_BAD_INPUT
    assert len(err) == 1 and err[0].startswith("error: ") and "UTF-8" in err[0]


def test_non_numeric_kv_value_exits_2(capsys, tmp_path):
    scen = tmp_path / "bad.kv"
    scen.write_text("g = 9.81\nh = abc\nk = 1\nomega = 0\n", encoding="utf-8")
    code, err = run_validate(capsys, scen)
    assert code == EXIT_BAD_INPUT
    assert err == ["error: parameter h must be a number, got 'abc'"]


@pytest.mark.parametrize("key", ["h", "a"])
def test_non_scalar_json_value_exits_2(capsys, tmp_path, key):
    scen = tmp_path / "bad.json"
    scen.write_text(json.dumps({**VALID, key: [1]}), encoding="utf-8")
    code, err = run_validate(capsys, scen)
    assert code == EXIT_BAD_INPUT
    assert err == [f"error: parameter {key} must be a number, got [1]"]


@pytest.mark.parametrize("key,value", [("h", True), ("a", False), ("omega", False)])
def test_json_boolean_value_exits_2(capsys, tmp_path, key, value):
    # float(True) is 1.0: a boolean must not pass for a number.
    scen = tmp_path / "bad.json"
    scen.write_text(json.dumps({**VALID, key: value}), encoding="utf-8")
    code, err = run_validate(capsys, scen)
    assert code == EXIT_BAD_INPUT
    assert err == [f"error: parameter {key} must be a number, got {value!r}"]

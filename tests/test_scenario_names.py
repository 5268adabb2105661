"""A scenario file's ``name`` becomes one directory under ``--out`` and
nothing else: names that would leave it end in exit 2 with one ``error:``
line, and nothing is written anywhere."""

import json

import pytest

from shearwave.cli import EXIT_BAD_INPUT, EXIT_OK, main

FIG1 = {"g": 9.81, "h": 1.0, "k": 1.0, "omega": 0.0, "a": 0.01, "branch": "plus"}


def write_scenario(tmp_path, name):
    scen = tmp_path / "case.json"
    scen.write_text(json.dumps({**FIG1, "name": name}), encoding="utf-8")
    return scen


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.err.splitlines()


def bad_names(tmp_path):
    return [str(tmp_path / "escaped"), "../escaped", "sub/escaped",
            "sub\\escaped", "nul\0byte", ".", "..", ""]


@pytest.mark.parametrize("index", range(8))
def test_portrait_rejects_names_leaving_out(capsys, tmp_path, index):
    name = bad_names(tmp_path)[index]
    scen = write_scenario(tmp_path, name)
    code, err = run(capsys, "portrait", "--scenario", str(scen),
                    "--out", str(tmp_path / "out"), "--quiet")
    assert code == EXIT_BAD_INPUT
    assert len(err) == 1 and err[0].startswith("error: scenario name")
    assert list(tmp_path.iterdir()) == [scen]


@pytest.mark.parametrize("command", ["paths", "drift", "bifurcation"])
def test_every_writing_command_rejects_an_escaping_name(capsys, tmp_path, command):
    scen = write_scenario(tmp_path, "../escaped")
    code, err = run(capsys, command, "--scenario", str(scen),
                    "--out", str(tmp_path / "out"), "--quiet")
    assert code == EXIT_BAD_INPUT
    assert len(err) == 1 and err[0].startswith("error: scenario name")
    assert list(tmp_path.iterdir()) == [scen]


def test_absolute_name_writes_nothing_there(capsys, tmp_path):
    target = tmp_path / "elsewhere"
    scen = write_scenario(tmp_path, str(target))
    code, _ = run(capsys, "drift", "--scenario", str(scen), "--levels", "3",
                  "--out", str(tmp_path / "out"), "--quiet")
    assert code == EXIT_BAD_INPUT
    assert not target.exists()


def test_plain_name_is_one_level_below_out(capsys, tmp_path):
    scen = write_scenario(tmp_path, "fig1 copy.v2")
    code, err = run(capsys, "portrait", "--scenario", str(scen),
                    "--out", str(tmp_path / "out"), "--quiet")
    assert code == EXIT_OK and err == []
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["fig1 copy.v2"]
    assert (tmp_path / "out" / "fig1 copy.v2" / "portrait.json").is_file()


@pytest.mark.parametrize("name", [None, 7, ["fig1"]])
def test_a_name_that_is_not_a_string_exits_2(capsys, tmp_path, name):
    scen = write_scenario(tmp_path, name)
    code, err = run(capsys, "drift", "--scenario", str(scen), "--levels", "3",
                    "--out", str(tmp_path / "out"), "--quiet")
    assert code == EXIT_BAD_INPUT
    assert len(err) == 1 and err[0].startswith(f"error: scenario name {name!r} ")
    assert list(tmp_path.iterdir()) == [scen]

"""An empty path names no file: ``--scenario ''``, ``--seeds ''``,
``--grid ''`` and ``--out ''`` exit 2 with one ``error:`` line naming the
option, print nothing on stdout and write nothing, as ``--format ,`` does."""

import pytest

from shearwave.cli import EXIT_BAD_INPUT, main


@pytest.mark.parametrize("argv,option", [
    (["portrait", "--preset", "fig1", "--scenario", ""], "--scenario"),
    (["paths", "--preset", "fig1", "--seeds", ""], "--seeds"),
    (["validate", "--preset", "fig2", "--grid", ""], "--grid"),
])
def test_empty_path_exits_2_and_writes_nothing(argv, option, capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} '' names no file\n"
    assert list(tmp_path.iterdir()) == []


def test_empty_out_exits_2_and_writes_nothing(capsys, tmp_path, monkeypatch):
    # Read before the run, as the other paths are: not the working directory.
    monkeypatch.chdir(tmp_path)
    assert main(["drift", "--preset", "fig1", "--levels", "3", "--out", ""]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out '' names no file\n"
    assert list(tmp_path.iterdir()) == []

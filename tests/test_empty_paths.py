"""An empty path names no file: ``--scenario ''``, ``--seeds ''`` and
``--grid ''`` exit 2 with one ``error:`` line naming the option, print
nothing on stdout and write nothing, as ``--format ,`` does."""

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

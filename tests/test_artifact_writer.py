"""One writer for every output file: a command returns its files and ``main``
writes them once the run has succeeded.

A run that exits non-zero writes no file and makes no directory; a write
that fails part way removes what the run made and keeps what was there,
with its old content;
``--format`` is refused before the parameters are read; ``validate --grid``
writes through the same writer, making missing parent directories.
"""

import pytest

import shearwave.cli as cli
from shearwave.cli import EXIT_BAD_INPUT, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from shearwave.fields import GRID_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_paths_failing_at_its_second_seed_leaves_no_out_directory(capsys, tmp_path):
    seeds = tmp_path / "s.txt"
    seeds.write_text("3.14159 0.3\n0 -0.5\n", encoding="utf-8")
    code, out, err = run(capsys, "paths", "--preset", "fig1", "--seeds", str(seeds),
                         "--out", str(tmp_path / "out"))
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: Y0")
    assert not (tmp_path / "out").exists()


def test_paths_failing_at_its_json_leaves_only_what_was_there(capsys, tmp_path):
    fig1 = tmp_path / "out" / "fig1"
    (fig1 / "paths.json").mkdir(parents=True)
    (fig1 / "keep.csv").write_text("kept\n", encoding="utf-8")
    code, out, err = run(capsys, "paths", "--preset", "fig1", "--periods", "1",
                         "--out", str(tmp_path / "out"))
    assert code == EXIT_IO
    assert out == "" and err.startswith("i/o error:") and "paths.json" in err
    assert sorted(p.name for p in fig1.iterdir()) == ["keep.csv", "paths.json"]
    assert (fig1 / "keep.csv").read_text(encoding="utf-8") == "kept\n"
    assert not any((fig1 / "paths.json").iterdir())


def test_a_failed_write_keeps_an_existing_files_old_content(capsys, tmp_path):
    fig1 = tmp_path / "out" / "fig1"
    (fig1 / "paths.json").mkdir(parents=True)
    (fig1 / "trajectory_000.csv").write_text("old\n", encoding="utf-8")
    code, out, err = run(capsys, "paths", "--preset", "fig1", "--periods", "1",
                         "--out", str(tmp_path / "out"))
    assert code == EXIT_IO
    assert out == "" and err.startswith("i/o error:") and "paths.json" in err
    assert (fig1 / "trajectory_000.csv").read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in fig1.iterdir()) == ["paths.json", "trajectory_000.csv"]


def test_a_failed_write_removes_the_directories_it_made(tmp_path):
    def fails():
        raise OSError("disk full")
    new = tmp_path / "new"
    with pytest.raises(OSError, match="disk full"):
        cli._write({new / "a" / "x.csv": "x\n", new / "b" / "y.json": fails})
    assert list(tmp_path.iterdir()) == []


def test_validate_whose_checks_fail_writes_no_grid(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "dispersion_residual", lambda p: 1.0)
    grid = tmp_path / "g.csv"
    code, out, err = run(capsys, "validate", "--preset", "fig1", "--grid", str(grid))
    assert code == EXIT_NUMERICAL
    assert "dispersion_residual" in out and "FAIL" in out
    assert "numerical failure" in err
    assert not grid.exists()


def test_validate_grid_makes_its_parent_directories(capsys, tmp_path):
    grid = tmp_path / "no" / "such" / "dir" / "g.csv"
    code, _, err = run(capsys, "validate", "--preset", "fig1", "--grid", str(grid),
                       "--quiet")
    assert code == EXIT_OK and err == ""
    lines = grid.read_text(encoding="utf-8").splitlines()
    assert lines[0] == GRID_HEADER
    assert len(lines) == 1 + 25 * 13


def test_format_is_refused_before_the_parameters(capsys, tmp_path, monkeypatch):
    def no_compute(args):
        raise AssertionError("parameters read before --format was checked")
    monkeypatch.setattr(cli, "resolve_params", no_compute)
    code, out, err = run(capsys, "drift", "--format", "svg", "--omega", "nan",
                         "--out", str(tmp_path / "out"))
    assert code == EXIT_BAD_INPUT
    assert out == "" and err == "error: drift writes csv,json, not svg\n"
    assert not (tmp_path / "out").exists()

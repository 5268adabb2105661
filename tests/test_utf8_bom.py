"""A scenario or seeds file saved as UTF-8 with a byte-order mark (as
Windows Notepad saves UTF-8) reads as its copy without the mark: the same
exit code, the same standard output and the same artifacts.  A byte that
is not UTF-8 is named by its offset in the file, the mark counted."""

import codecs

import pytest

from shearwave.cli import EXIT_BAD_INPUT, main

KV = "# fig2\ng = 9.81\nh = 1.0\nk = 1.0\nomega = -6.0\na = 0.01\nbranch = minus\n"
JSON = ('{"g": 9.81, "h": 1.0, "k": 1.0, "omega": -6.0, "a": 0.01, '
        '"branch": "minus"}\n')
SEEDS = "# two seeds\n3.141592653589793 0.01\n0.0 0.05\n"


def _run(capsys, root, argv):
    """Exit code, stdout and {name: bytes} of every file under ``root/out``."""
    code = main([*argv, "--out", str(root / "out")])
    out = capsys.readouterr().out.replace(str(root), "<root>")
    files = {path.relative_to(root / "out").as_posix(): path.read_bytes()
             for path in sorted((root / "out").rglob("*")) if path.is_file()}
    return code, out, files


def _same_with_and_without_bom(capsys, tmp_path, name, text, argv_of):
    results = []
    for copy, prefix in (("plain", b""), ("bom", codecs.BOM_UTF8)):
        root = tmp_path / copy
        root.mkdir()
        (root / name).write_bytes(prefix + text.encode("utf-8"))
        results.append(_run(capsys, root, argv_of(root / name)))
    plain, bom = results
    assert plain[0] == 0 and plain[2]
    assert bom == plain


@pytest.mark.parametrize("name,text", [
    ("wave.kv", KV),        # key = value lines
    ("wave.txt", JSON),     # JSON, told by its first character
    ("wave.json", JSON),    # JSON, told by its suffix
], ids=["key-value", "json-by-content", "json-by-suffix"])
def test_a_scenario_file_with_a_bom_reads_as_without(name, text, capsys, tmp_path):
    _same_with_and_without_bom(
        capsys, tmp_path, name, text,
        lambda path: ["portrait", "--scenario", str(path), "--resolution", "9"])


def test_a_seeds_file_with_a_bom_reads_as_without(capsys, tmp_path):
    _same_with_and_without_bom(
        capsys, tmp_path, "seeds.txt", SEEDS,
        lambda path: ["paths", "--preset", "fig2", "--seeds", str(path),
                      "--periods", "1"])


def test_a_bad_byte_after_a_bom_is_named_by_its_file_offset(capsys, tmp_path):
    scenario = tmp_path / "wave.kv"
    scenario.write_bytes(codecs.BOM_UTF8 + b"g = 9.81\n\xff\n")
    code = main(["validate", "--scenario", str(scenario)])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err == (
        f"error: scenario file {scenario} is not UTF-8 (byte 12: invalid start byte)\n")

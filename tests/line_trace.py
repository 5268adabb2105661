"""Lines of ``src/shearwave`` that tier 1 does not reach, by a stdlib tracer.

Runs pytest in this process under a ``sys.settrace`` line tracer, then
compares the lines it saw run with every executable line of the package,
read from the ``co_lines()`` of each module's code objects.  It exits 1 if
a line is unreached and not in ``ALLOWED``, or if an ``ALLOWED`` line was
reached (the entry is stale), and 0 otherwise.  Pytest's own exit status
is printed but decides nothing: tracing makes the suite about three times
slower, so a test with a wall-time bound may fail under it.

Usage, from the repository root (too slow for tier 1: minutes, not
seconds):

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

The default pytest arguments are ``-q -p no:cacheprovider tests``.
Tests that run the package in a subprocess are not traced.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shearwave"

#: Unreached lines, each entry with its reason: (module file, text that
#: occurs on exactly one line of it, the lines as offsets from that line,
#: reason).  The text finds the lines wherever edits move them; ``None``
#: stands for the whole file.  Only the process entry points are here:
#: every refusal and guard is reached in process by a named input.
ALLOWED = [
    ("__main__.py", None, None,
     "the `python -m shearwave` entry point: only subprocess tests run it"),
    ("cli.py", "sys.exit(main())", (0, 1),
     "the entry point of `python cli.py`: only subprocess tests run it"),
    ("cli.py", '"--grid needs numpy', (-1, 1),
     "runs only where numpy cannot be imported: a tier-1 subprocess test "
     "and CI's cli-without-numpy job run it"),
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of the module at ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def allowed_lines(files: dict[str, Path]) -> tuple[dict, list[str]]:
    """{(file, line): reason} from ``ALLOWED``, and the entries whose text
    does not occur exactly once in their file."""
    allowed, broken = {}, []
    for name, text, span, reason in ALLOWED:
        source = files[name].read_text().splitlines()
        if text is None:
            allowed.update(((name, n), reason) for n in range(1, len(source) + 1))
            continue
        found = [n for n, line in enumerate(source, 1) if text in line]
        if len(found) != 1:
            broken.append(f"{name}: {text!r} is on {len(found)} lines, not one")
            continue
        allowed.update(((name, found[0] + offset), reason) for offset in range(*span))
    return allowed, broken


def trace_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit status and the lines run in each file of the package.

    A frame is traced only while its code object has lines not yet seen:
    once every line of its ``co_lines()`` has run, new frames of that code
    are not traced and running ones stop at their next line."""
    names = {str(path): path.name for path in PACKAGE.glob("*.py")}
    reached = {name: set() for name in names.values()}
    locals_by_code: dict[types.CodeType, object] = {}

    def line_tracer(code):
        """The local trace function of ``code``, or None outside the package."""
        name = names.get(str(Path(code.co_filename).resolve()))
        if name is None:
            return None
        lines = reached[name]
        unseen = {line for _, _, line in code.co_lines() if line is not None}

        def local(frame, event, arg):
            if event == "line" or event == "call":
                n = frame.f_lineno
                if n in unseen:
                    lines.add(n)
                    unseen.discard(n)
                    if not unseen:
                        locals_by_code[code] = None
                        return None
            return local
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        local = locals_by_code.get(code, tracer)
        if local is tracer:  # a code object not met before
            local = locals_by_code[code] = line_tracer(code)
        return local and local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, reached


def main(argv: list[str]) -> int:
    # The sources are read before the run, so an edit during it moves nothing.
    files = {path.name: path for path in sorted(PACKAGE.glob("*.py"))}
    executable = {name: executable_lines(path) for name, path in files.items()}
    allowed, problems = allowed_lines(files)
    status, reached = trace_run(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    total = unreached = 0
    for name, lines in executable.items():
        total += len(lines)
        missed = lines - reached[name]
        unreached += len(missed)
        for n in sorted(missed):
            print(f"unreached {name}:{n}  ({allowed.get((name, n), 'NOT ALLOWED')})")
            if (name, n) not in allowed:
                problems.append(f"{name}:{n} is unreached and not in ALLOWED")
        problems += [f"{name}:{n} is in ALLOWED but reached"
                     for (file, n) in sorted(allowed) if file == name and n in reached[name]]
    print(f"pytest exit status {int(status)} (not gated); {total - unreached} of "
          f"{total} executable lines of src/shearwave reached, {unreached} unreached")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

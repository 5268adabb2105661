"""Every command line gets a typed outcome: a fuzz of ``cli.main`` in process.

The state space is read from ``build_parser()``: each subcommand and each of
its options, with a value drawn by the option's type.  Floats come from a
set of finite extremes (and inf, nan) or from the sweep box, ints from small
values or values above every size cap, so no drawn run is long; the step
budget of an integration is cut to 2,000 steps for the same reason.  Each
run must return 0, 2, 3 or 4; a nonzero code comes with exactly one stderr
line, ``error:``, ``i/o error:`` or ``numerical failure:`` by code, and
argparse refuses a malformed command line with ``SystemExit(2)``.
"""

import argparse
import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shearwave import drift
from shearwave.cli import build_parser, main
from shearwave.drift import MAX_LEVELS
from shearwave.phase import MAX_RESOLUTION
from shearwave.steady import MAX_SCAN_STEPS

PARSER = build_parser()
SUBCOMMANDS = next(action.choices for action in PARSER._actions
                   if isinstance(action, argparse._SubParsersAction))
#: The options of each subcommand, in parser order; --out is always set.
OPTIONS = {name: [action for action in sub._actions
                  if action.option_strings and action.dest not in ("help", "out")]
           for name, sub in SUBCOMMANDS.items()}

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-8, 1.0, -1.0, 350.0, 1e154, -1e154,
            1e300, 1.7976931348623157e308, -1.7976931348623157e308,
            float("inf"), float("-inf"), float("nan"))
#: Ranges of the sweep box (h, k, a/h up to 0.06, |omega*sqrt(h/g)| <= 15),
#: and a common range for the other float options.
BOX = {"g": (9.81, 9.81), "h": (0.1, 10.0), "k": (0.03, 10.0), "a": (0.0, 0.6),
       "omega": (-150.0, 150.0)}
OTHER_RANGE = (-40.0, 40.0)
ABOVE_CAPS = max(MAX_LEVELS, MAX_RESOLUTION, MAX_SCAN_STEPS) + 1

#: Files a path option may name: written per run under its temporary directory.
FILES = {
    "scenario": {"fig2.kv": b"name = demo\ng = 9.81\nh = 1\nk = 1\nomega = -6\n"
                            b"a = 0.01\nbranch = minus\n",
                 "fig1.json": b'{"g": 9.81, "h": 1, "k": 1, "omega": 0, "a": 0.01}',
                 "broken.json": b'{"g": 9.81, "h": ',
                 "latin1.kv": b"g = 9.81\nh = 1\xff\n",
                 "missing.kv": None},
    "seeds": {"seeds.txt": b"# X0 Y0\n3.14 0.1\n0 0.2\n",
              "bad.txt": b"3.14\n",
              "latin1.txt": b"\xff3.14 0.0\n",
              "missing.txt": None},
    "grid": {"grid.csv": None, "no/such/dir/grid.csv": None},
}
FORMATS = ("csv", "json,svg", "csv,json,svg", "png", "")

PREFIX = {2: "error: ", 3: "i/o error: ", 4: "numerical failure: "}


def _rarely(strategy, usual):
    """``strategy`` one time in four, else ``usual``."""
    return st.integers(0, 3).flatmap(lambda i: strategy if i == 0 else usual)


def _value(action):
    if action.nargs == 0:
        return st.none()
    if action.choices is not None:
        return _rarely(st.just("bogus"), st.sampled_from(sorted(action.choices)))
    if action.type is float:
        lo, hi = BOX.get(action.dest, OTHER_RANGE)
        return _rarely(st.sampled_from(EXTREMES), st.floats(lo, hi)).map(repr)
    if action.type is int:
        return _rarely(st.sampled_from([ABOVE_CAPS, 10**9, 10**30]),
                       st.integers(-3, 12)).map(str)
    return st.sampled_from(sorted(FILES.get(action.dest, FORMATS)))


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    for action in OPTIONS[name]:
        likely = action.required or action.dest == "preset"
        if draw(st.integers(0, 9)) < (9 if likely else 2):
            value = draw(_value(action))
            argv += [action.option_strings[0]] + ([] if value is None else [value])
    return argv


def _with_files(argv, root: Path):
    """``argv`` with each file name under ``root``, its file written there."""
    out = list(argv)
    for i, arg in enumerate(argv[1:], start=1):
        dest = argv[i - 1].lstrip("-")
        if dest in ("scenario", "seeds", "grid"):
            content = FILES[dest][arg]
            if content is not None:
                (root / arg).write_bytes(content)
            out[i] = str(root / arg)
    if any(action.dest == "out" for action in SUBCOMMANDS[argv[0]]._actions):
        out += ["--out", str(root / "out")]
    return out


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_lines())
def test_every_command_line_gets_a_typed_outcome(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("ignore")
        saved, drift.MAX_STEPS = drift.MAX_STEPS, 2000
        stack.callback(setattr, drift, "MAX_STEPS", saved)
        try:
            code = main(_with_files(argv, Path(tmp)))
        except SystemExit as exc:
            assert exc.code == 2, (argv, stderr.getvalue())
            return
    lines = stderr.getvalue().splitlines()
    assert code in (0, 2, 3, 4), (argv, lines)
    if code == 0:
        assert lines == [], argv
    else:
        assert len(lines) == 1 and lines[0].startswith(PREFIX[code]), (argv, lines)

"""Span tracing around the public functions of each shearwave layer.

Tracing lives entirely in benchmark code: ``Tracer.install`` rebinds module
attributes (every alias of a wrapped function in every loaded
``shearwave`` module, e.g. ``shearwave.paths.find_critical_points``) to
timing wrappers, and ``Tracer.uninstall`` puts the originals back.  The
scalar kernels ``hamiltonian`` and ``phi`` (and the other array kernels
called point by point) are deliberately not wrapped: they run millions of
times and a wrapper would distort what it measures.

A span is ``[name, start_ns, end_ns, parent_index, error_type, count]``;
``count`` is the unit of work the call did (separatrix points, integrator
steps, CSV rows, grid or residual points) or 0.  Spans stay in memory
and are written out once, at the end of the traced segment.
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import statistics
import subprocess
import sys
import time

import numpy as np

NAME, START, END, PARENT, ERROR, COUNT = range(6)

#: (module, attribute, span name, kind).  ``gen`` wraps a generator
#: function: its span runs from the consumer's first ``next()`` to
#: exhaustion and counts the items.
TARGETS = (
    ("shearwave.portrait", "build_phase_portrait", "portrait.build", "call"),
    ("shearwave.portrait", "find_critical_points", "portrait.critical_points", "call"),
    ("shearwave.portrait", "trace_separatrix", "portrait.trace", "call"),
    ("shearwave.portrait", "portrait_json", "portrait.export", "call"),
    ("shearwave.portrait", "portrait_svg", "portrait.export", "call"),
    ("shearwave.portrait", "isocline_csv_rows", "portrait.export", "gen"),
    ("shearwave.portrait", "separatrix_csv_rows", "portrait.export", "gen"),
    ("shearwave.portrait", "bifurcation_scan", "portrait.bifurcation", "call"),
    ("shearwave.paths", "layer_boundaries", "paths.layer_boundaries", "call"),
    ("shearwave.paths", "drift_profile", "paths.drift_profile", "call"),
    ("shearwave.paths", "drift_per_period", "paths.drift_level", "call"),
    ("shearwave.paths", "integrate_steady", "paths.integrate", "call"),
    ("shearwave.paths", "find_closed_orbit", "paths.closed_orbit", "call"),
    ("shearwave.paths", "trajectory_csv_rows", "paths.csv", "gen"),
    ("shearwave.paths", "drift_csv_rows", "paths.csv", "gen"),
    ("shearwave.fields", "write_field_grid", "fields.grid", "call"),
    ("shearwave.fields", "field_identity_residuals", "fields.residuals", "call"),
    ("shearwave.cli", "main", "cli.main", "call"),
)

#: Float64 arrays at the residual function's boundary: t, x, y in and the
#: five residual fields out.  Temporaries and cache traffic are not counted.
RESIDUAL_ARRAYS = 8


def _steps(result):
    return max(len(result.t) - 1, 0)


def _grid_points(bound):
    return len(bound.arguments["x_grid"]) * len(bound.arguments["y_grid"])


def _residual_points(bound):
    a = bound.arguments
    return int(np.broadcast(np.asarray(a["t"]), np.asarray(a["x"]),
                            np.asarray(a["y"])).size)


class Tracer:
    """In-memory span recorder plus the attribute rebinding that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx, error=None, count=0):
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[ERROR] = error
        span[COUNT] = count
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        elif idx in self._stack:
            self._stack.remove(idx)

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, fn, name):
        tracer = self
        sig = inspect.signature(fn)
        if name == "paths.integrate":
            def span_name(args, kwargs):
                method = sig.bind(*args, **kwargs).arguments.get("method", "adaptive")
                return "paths.midpoint" if method == "midpoint" else name
        else:
            def span_name(args, kwargs):
                return name
        counter = None
        if name == "fields.grid":
            counter = _grid_points
        elif name == "fields.residuals":
            counter = _residual_points

        def wrapper(*args, **kwargs):
            idx = tracer._open(span_name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, error=type(exc).__name__)
                raise
            count = 0
            if counter is not None:
                count = counter(sig.bind(*args, **kwargs))
            elif name == "portrait.trace":
                count = len(result.points)
            elif name == "paths.integrate":
                count = _steps(result)
            tracer._close(idx, count=count)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            # The body (and so the span) starts at the consumer's first next().
            idx = tracer._open(name)
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            except BaseException as exc:
                tracer._close(idx, error=type(exc).__name__, count=items)
                raise
            tracer._close(idx, count=items)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every alias of each target in the loaded shearwave modules."""
        if not self._bindings:
            self._bindings = self._build_bindings()
        for owner, key, _, wrapped in self._bindings:
            setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    def _build_bindings(self):
        bindings = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "shearwave" or n.startswith("shearwave.")]
        for modname, attr, name, kind in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            wrapped = (self._wrap_gen if kind == "gen" else self._wrap_call)(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        bindings.append((module, key, original, wrapped))
        from shearwave.params import WaveParams
        descriptor = WaveParams.__dict__["solve"]
        solve = self._wrap_call(descriptor.__func__, "params.solve")
        bindings.append((WaveParams, "solve", descriptor, classmethod(solve)))
        return bindings

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def merge_spans(groups):
    """Concatenate span lists from several processes, fixing parent indexes."""
    merged = []
    for spans in groups:
        offset = len(merged)
        for span in spans:
            span = list(span)
            if span[PARENT] is not None:
                span[PARENT] += offset
            merged.append(span)
    return merged


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _rate(numer, denom, scale=1.0):
    return scale * numer / denom if denom else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts, busy time and unit costs from a span list.

    Busy time sums the spans of a group that have no ancestor in the same
    group, so nested calls are not counted twice.  Self time is a span's
    duration minus the time covered by its direct children.
    """
    dur = [(s[END] - s[START]) / 1e9 for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child_time[s[PARENT]] += dur[i]

    def nested_in(i, names):
        p = spans[i][PARENT]
        while p is not None:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    def pick(*names):
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def busy(*names):
        return sum(dur[i] for i in pick(*names) if not nested_in(i, names))

    def calls(*names):
        return len(pick(*names))

    def count(*names):
        return sum(spans[i][COUNT] for i in pick(*names))

    def failed(*names):
        return sum(1 for i in pick(*names)
                   if spans[i][ERROR] and not nested_in(i, names))

    m = {}
    m["params.solve.calls"] = (calls("params.solve"), "count")
    m["params.solve.busy_s"] = (busy("params.solve"), "s")

    m["portrait.build.calls"] = (calls("portrait.build"), "count")
    m["portrait.build.busy_s"] = (busy("portrait.build"), "s")
    m["portrait.build.self_s"] = (sum(dur[i] - child_time[i]
                                      for i in pick("portrait.build")), "s")
    m["portrait.critical_points.calls"] = (calls("portrait.critical_points"), "count")
    m["portrait.critical_points.busy_s"] = (busy("portrait.critical_points"), "s")
    arms = [i for i in pick("portrait.trace") if not spans[i][ERROR]]
    trace_busy = busy("portrait.trace")
    trace_points = count("portrait.trace")
    m["portrait.trace.arms"] = (len(arms), "count")
    m["portrait.trace.points"] = (trace_points, "count")
    m["portrait.trace.busy_s"] = (trace_busy, "s")
    m["portrait.trace.us_per_point"] = (_rate(trace_busy, trace_points, 1e6), "us")
    m["portrait.trace.failed"] = (failed("portrait.trace"), "count")
    m["portrait.export.busy_s"] = (busy("portrait.export"), "s")
    m["portrait.bifurcation.busy_s"] = (busy("portrait.bifurcation"), "s")

    m["paths.layer_boundaries.busy_s"] = (busy("paths.layer_boundaries"), "s")
    levels = calls("paths.drift_level")
    drift_busy = busy("paths.drift_level")
    m["paths.drift.levels"] = (levels, "count")
    m["paths.drift.busy_s"] = (drift_busy, "s")
    m["paths.drift.us_per_level"] = (_rate(drift_busy, levels, 1e6), "us")
    m["paths.drift.failed"] = (failed("paths.drift_profile", "paths.drift_level"), "count")
    steps = count("paths.integrate")
    integ_busy = busy("paths.integrate")
    m["paths.integrate.steps"] = (steps, "count")
    m["paths.integrate.busy_s"] = (integ_busy, "s")
    m["paths.integrate.us_per_step"] = (_rate(integ_busy, steps, 1e6), "us")
    mid_steps = count("paths.midpoint")
    m["paths.midpoint.steps"] = (mid_steps, "count")
    m["paths.midpoint.us_per_step"] = (_rate(busy("paths.midpoint"), mid_steps, 1e6), "us")
    m["paths.closed_orbit.busy_s"] = (busy("paths.closed_orbit"), "s")
    m["paths.csv.rows"] = (count("paths.csv"), "count")
    m["paths.csv.busy_s"] = (busy("paths.csv"), "s")

    grid_points = count("fields.grid")
    grid_busy = busy("fields.grid")
    res_points = count("fields.residuals")
    m["fields.grid.points"] = (grid_points, "count")
    m["fields.grid.busy_s"] = (grid_busy, "s")
    m["fields.grid.us_per_point"] = (_rate(grid_busy, grid_points, 1e6), "us")
    m["fields.residuals.points"] = (res_points, "count")
    m["fields.residuals.busy_s"] = (busy("fields.residuals"), "s")
    m["fields.residuals.computed_bytes"] = (8 * RESIDUAL_ARRAYS * res_points, "B")
    return m


# ----------------------------------------------------------------------
# CLI layer probe: interpreter start, import split, in-process commands
# ----------------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(shearwave import s, scipy import s) from ``-X importtime`` output.

    The shearwave figure sums the cumulative times of the top-level
    ``shearwave*`` imports.  The scipy figure sums the cumulative times of
    ``scipy*`` imports that have no ``scipy*`` ancestor, wherever they are
    imported from.  Children print before their parent, so the lines are
    walked in reverse to see ancestors first.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            depth = (len(match.group(3)) - 1) // 2
            entries.append((depth, match.group(4), int(match.group(2)) / 1e6))
    own = sum(cum for depth, name, cum in entries
              if depth == 0 and name.split(".")[0] == "shearwave")
    scipy = 0.0
    ancestors: list[str] = []
    for depth, name, cum in reversed(entries):
        del ancestors[depth:]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy += cum
        ancestors.append(name)
    return own, scipy


def cli_probe(python: str, env: dict, out_dir, commands, reps: int = 3) -> dict:
    """Per-layer numbers of the ``cli`` module.

    Interpreter start is ``python -c pass``; the import split comes from
    ``python -X importtime -c "import shearwave.cli"``; each README command
    is timed in-process through ``shearwave.cli.main(argv)`` with its stdout
    discarded.  Every figure is the median of ``reps`` repetitions.
    """
    import contextlib
    import io
    import os

    import shearwave.cli

    def wall(argv):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{argv!r} exited {proc.returncode}: {proc.stderr[-400:]}")
        return elapsed, proc.stderr

    m = {}
    m["cli.interp_start_s"] = (statistics.median(
        wall([python, "-c", "pass"])[0] for _ in range(reps)), "s")
    splits = [parse_importtime(wall([python, "-X", "importtime", "-c",
                                     "import shearwave.cli"])[1])
              for _ in range(reps)]
    m["cli.import_s"] = (statistics.median(s[0] for s in splits), "s")
    m["cli.import_scipy_s"] = (statistics.median(s[1] for s in splits), "s")

    cwd = os.getcwd()
    os.makedirs(out_dir, exist_ok=True)
    try:
        os.chdir(out_dir)
        for key, argv in commands:
            times = []
            for _ in range(reps):
                sink = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink):
                    code = shearwave.cli.main(list(argv))
                times.append(time.perf_counter() - t0)
                if code != 0:
                    raise RuntimeError(f"in-process {key} exited {code}")
            m[f"cli.main_s.{key}"] = (statistics.median(times), "s")
    finally:
        os.chdir(cwd)
    return m

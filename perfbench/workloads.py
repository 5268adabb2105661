"""The four benchmark workloads: input generators, operations and checks.

Each workload turns the run seed into one round of operations (``ops``),
runs one of them through the program (``execute``, the timed part) and
checks the result (``check``, untimed), which returns the bytes the
operation produced so repetitions can be compared.  Inputs are generated
here, from the seed alone; the program only ever sees the generated values.

A run does a fixed amount of work, ``plan(seconds)``: whole rounds, as
many as take ``seconds`` on the reference machine (``round_s`` per
round: a 2-vCPU cloud VM, Python 3.11, numpy 2.4, scipy 1.17), so a
faster or slower program repeats each operation equally often.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import shearwave as sw
from shearwave import cli as swcli
from shearwave import paths as swpaths

G = 9.81
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"


class WrongAnswer(Exception):
    """An operation completed but its output failed a check."""


class CommandFailed(Exception):
    """A CLI subprocess exited non-zero; ``kind`` names the error it reported."""

    def __init__(self, code, stderr):
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        head = last.split(":", 1)[0].strip()
        self.kind = head if head.isidentifier() else f"exit{code}"
        super().__init__(f"exit {code}: {last}")


def preset(name: str) -> sw.WaveParams:
    q = swcli.PRESETS[name]["params"]
    return sw.WaveParams.solve(q["g"], q["h"], q["k"], q["omega"], a=q["a"],
                               s=q["s"], branch=q["branch"])


def _require(ok: bool, message: str):
    if not ok:
        raise WrongAnswer(message)


def _hamiltonian(co, X, Y):
    """H = Ak*cos(X)*sinh(Y) - omega*Y^2/2 - f*Y, restated for the checks."""
    return co.Ak * np.cos(X) * np.sinh(Y) - 0.5 * co.omega * Y * Y - co.f * Y


def inputs_sha256(ops) -> str:
    """Digest of the generated inputs of a list of operations, in order."""
    h = hashlib.sha256()
    for op in ops:
        for key in sorted(op):
            value = op[key]
            h.update(key.encode() + b"=")
            h.update(value.tobytes() if isinstance(value, np.ndarray)
                     else repr(value).encode())
            h.update(b";")
    return h.hexdigest()


def _files_blob(root: Path) -> bytes:
    parts = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        parts.append(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return b"\0\0".join(parts)


class Workload:
    name = ""
    round_s: float
    #: Fewest whole rounds in a timed run, so every operation repeats.
    min_rounds = 2

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[dict] = []
        self.warmup: dict = {}

    def plan(self, seconds: float, min_rounds: int | None = None) -> list[dict]:
        """The operations of one run, in order: whole rounds, at least
        ``min_rounds`` (default: the workload's) of them."""
        if min_rounds is None:
            min_rounds = self.min_rounds
        return self.ops * max(min_rounds, round(seconds / self.round_s))

    def prepare(self, op):
        """Untimed set-up before an operation (e.g. removing old artifacts)."""

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, result) -> bytes:
        raise NotImplementedError


# ----------------------------------------------------------------------
# cli-readme: the README "Command line" block, one fresh process each
# ----------------------------------------------------------------------

README_COMMANDS = (
    ("dispersion", ("dispersion", "--g", "9.81", "--h", "1", "--k", "1",
                    "--omega", "-6", "--branch", "minus")),
    ("portrait", ("portrait", "--preset", "fig2", "--format", "csv,json,svg",
                  "--out", "out")),
    ("paths", ("paths", "--preset", "fig1", "--periods", "20", "--out", "out")),
    ("drift", ("drift", "--preset", "fig4-left", "--find-closed", "--out", "out")),
    ("bifurcation", ("bifurcation", "--preset", "fig3", "--out", "out")),
    ("validate", ("validate", "--preset", "fig2")),
)

#: Scaled Hamiltonian drift allowed for a DOP853 trajectory at the default
#: rtol = 1e-10 over 20 wave periods (the worst preset seed reads ~1e-7).
ADAPTIVE_H_AUDIT = 1e-6


class CliReadme(Workload):
    """Six README commands in a fixed rotation; the seed picks where it starts."""

    name = "cli-readme"
    round_s = 6.6
    #: 30 commands, so the order statistic with ten above it (``op_s_tail``)
    #: is p67; three rounds would put it below the median.
    min_rounds = 5

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        start = seed % len(README_COMMANDS)
        rotation = README_COMMANDS[start:] + README_COMMANDS[:start]
        self.ops = [{"key": key, "argv": list(argv)} for key, argv in rotation]
        self.warmup = {"key": "warmup", "argv": list(README_COMMANDS[0][1])}
        #: Set by the traced run: each command then starts through
        #: ``trace_child.py`` and leaves its spans in this directory.
        self.trace_dir: Path | None = None
        self._launches = 0

    def _dir(self, op) -> Path:
        return self.work_dir / op["key"]

    def prepare(self, op):
        shutil.rmtree(self._dir(op), ignore_errors=True)
        self._dir(op).mkdir(parents=True)

    def execute(self, op):
        launcher = [sys.executable, "-m", "shearwave"]
        if self.trace_dir is not None:
            self._launches += 1
            launcher = [sys.executable, str(TRACE_CHILD),
                        str(self.trace_dir / f"{self._launches:05d}.json")]
        proc = subprocess.run(launcher + op["argv"], cwd=self._dir(op),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CommandFailed(proc.returncode, proc.stderr)
        return proc.stdout

    def check(self, op, stdout) -> bytes:
        out = self._dir(op) / "out"
        key = op["key"]
        if key == "dispersion":
            report = json.loads(stdout)
            _require(report["c"] > 0 and math.isfinite(report["f"]),
                     "dispersion speed is not a right-going wave")
            _require(report["residual"] < 1e-10, "dispersion residual too large")
        elif key == "portrait":
            summary = json.loads((out / "fig2" / "portrait.json").read_text())
            kinds = [cp["kind"] for cp in
                     sorted(summary["critical_points"], key=lambda cp: cp["Y"])]
            _require(kinds == ["saddle", "center", "saddle"],
                     f"fig2 critical points are {kinds}")
            for name in ("isoclines.csv", "separatrices.csv"):
                lines = (out / "fig2" / name).read_text().splitlines()
                _require(lines[0] == "branch_label,X,Y" and len(lines) > 1,
                         f"{name} is empty or malformed")
            ET.fromstring((out / "fig2" / "portrait.svg").read_text())
        elif key == "paths":
            summary = json.loads((out / "fig1" / "paths.json").read_text())
            _require(len(summary["trajectories"]) == 6, "expected six trajectories")
            for tr in summary["trajectories"]:
                _require(not tr["truncated"], "trajectory truncated")
                _require(tr["h_drift_scaled"] < ADAPTIVE_H_AUDIT,
                         f"H drift {tr['h_drift_scaled']:.3e} over the audit bound")
                rows = (out / "fig1" / f"trajectory_{tr['index']:03d}.csv"
                        ).read_text().splitlines()
                _require(len(rows) == tr["n_steps"] + 1, "trajectory CSV row count")
        elif key == "drift":
            summary = json.loads((out / "fig4-left" / "drift.json").read_text())
            _require(summary["n_levels"] == 33, "expected 33 drift levels")
            orbit = summary["closed_orbit"]
            _require(orbit is not None and orbit["verified"],
                     "fig4-left closed orbit not verified")
            rows = (out / "fig4-left" / "drift.csv").read_text().splitlines()
            _require(len(rows) == 34, "drift CSV row count")
        elif key == "bifurcation":
            summary = json.loads((out / "fig3" / "bifurcation.json").read_text())
            _require(summary["counts"] == [1, 3], f"counts {summary['counts']}")
            star = summary["omega_star"]
            _require(star is not None and -6.0 < star < 0.0, f"omega* = {star}")
            rows = (out / "fig3" / "bifurcation.csv").read_text().splitlines()
            _require(len(rows) == 62, "bifurcation CSV row count")
        elif key == "validate":
            lines = stdout.splitlines()
            _require(len(lines) == 6 and all(l.endswith("PASS") for l in lines),
                     "validate did not print six PASS lines")
        return stdout.encode() + b"\0\0" + _files_blob(self._dir(op))


# ----------------------------------------------------------------------
# sweep: random right-going scenarios from the documented parameter box
# ----------------------------------------------------------------------

#: Distinct scenarios per round.  Scenario cost is heavy-tailed (median
#: ~0.13 s, worst ~1.8 s), so fewer scenarios make ``ops_per_s`` depend
#: more on the seed, and more push ``op_s_tail`` deeper into the tail.
SWEEP_ROUND = 60
SWEEP_DRIFT_LEVELS = 33
DRIFT_DIRECTIONS = {"forward", "backward", "closed", "always_forward"}


def _wave_speed(h, k, omega, branch):
    """Closed-form speed, restated so generation does not call the program."""
    t = math.tanh(k * h)
    root = math.sqrt(4.0 * G * k * t + (omega * t) ** 2)
    return -h * omega + (omega * t + (root if branch == "plus" else -root)) / (2.0 * k)


class Sweep(Workload):
    """solve -> portrait (+JSON, SVG) -> 33-level drift profile per scenario.

    Box: h in [0.1, 10] m, k in [0.03, 10] rad/m, a/h in [1e-4, 0.06]
    (all log-uniform), omega*sqrt(h/g) uniform in [-15, 15], either
    branch; scenarios with c <= 0 are redrawn.  Scenarios on which the
    program raises stay in: they count as failed operations.  A round is
    ``SWEEP_ROUND`` distinct scenarios.
    """

    name = "sweep"
    round_s = 9.5

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = self.rng
        while len(self.ops) < SWEEP_ROUND:
            h = 0.1 * 100.0 ** rng.random()
            k = 0.03 * (10.0 / 0.03) ** rng.random()
            a = h * 1e-4 * 600.0 ** rng.random()
            omega = rng.uniform(-15.0, 15.0) * math.sqrt(G / h)
            branch = "plus" if rng.random() < 0.5 else "minus"
            if _wave_speed(h, k, omega, branch) <= 0.0:
                continue
            self.ops.append({"key": f"s{len(self.ops)}", "h": h, "k": k, "a": a,
                             "omega": omega, "branch": branch})
        q = swcli.PRESETS["fig2"]["params"]
        self.warmup = {"key": "warmup", "h": q["h"], "k": q["k"], "a": q["a"],
                       "omega": q["omega"], "branch": q["branch"]}

    def execute(self, op):
        p = sw.WaveParams.solve(G, op["h"], op["k"], op["omega"], a=op["a"],
                                branch=op["branch"])
        port = sw.build_phase_portrait(p)
        text = sw.portrait_json(port)
        svg = sw.portrait_svg(port)
        reports = sw.drift_profile(p, n=SWEEP_DRIFT_LEVELS)
        rows = list(swpaths.drift_csv_rows(reports, p.k))
        return p, port, text, svg, reports, rows

    def check(self, op, result) -> bytes:
        p, port, text, svg, reports, rows = result
        _require(sw.dispersion_residual(p) < 1e-10, "dispersion residual too large")
        summary = json.loads(text)
        _require(summary["n_critical_points"] == len(port.critical_points),
                 "portrait JSON disagrees with the portrait")
        co = port.coeffs_normalized
        for arm in port.separatrices:
            inner = arm.points[1:-1]
            if len(inner):
                err = np.max(np.abs(_hamiltonian(co, inner[:, 0], inner[:, 1])
                                    - arm.H_level))
                _require(err <= 1e-8 * (1.0 + abs(arm.H_level)),
                         f"separatrix leaves its level set by {err:.3e}")
        ET.fromstring(svg)
        _require(len(reports) == SWEEP_DRIFT_LEVELS and len(rows) == len(reports) + 1,
                 "drift profile has the wrong number of levels")
        for r in reports:
            _require(r.direction in DRIFT_DIRECTIONS, f"drift direction {r.direction!r}")
            _require(r.layer in swpaths.LAYERS, f"drift layer {r.layer!r}")
        return "\n".join([text, svg, *rows]).encode()


# ----------------------------------------------------------------------
# orbits: long trajectories on the X = pi column of three presets
# ----------------------------------------------------------------------

#: (preset, adaptive starts, midpoint starts) per round.  fig4-left's long
#: orbits get the most starts, so the ten slowest executions of a run and
#: the next one (``op_s_tail``) all come from its adaptive runs.
ORBIT_STARTS = (("fig1", 2, 1), ("fig2", 3, 1), ("fig4-left", 6, 1))
ADAPTIVE_PERIODS = 20
MIDPOINT_PERIODS = 10
MIDPOINT_STEPS_PER_PERIOD = 200
#: Scaled Hamiltonian drift allowed for the implicit midpoint rule at 200
#: steps per period (second order: the presets read up to ~2e-3).
MIDPOINT_H_AUDIT = 1e-2


class Orbits(Workload):
    """Adaptive runs with CSV export, fixed-step midpoint runs and the
    fig4-left closed-orbit search, in one seeded order per round.

    Starting heights are stratified over the fluid column: stratum j of m
    holds (pi, top*(j + u)/m) with u drawn from the seed in [0.25, 0.75),
    so every round spans the same range of orbit lengths.
    """

    name = "orbits"
    round_s = 6.5

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = self.rng
        ops = []
        for name, n_adaptive, n_midpoint in ORBIT_STARTS:
            for method, m in (("adaptive", n_adaptive), ("midpoint", n_midpoint)):
                for j in range(m):
                    ops.append({"key": f"{name}:{method}:{j}", "kind": method,
                                "preset": name,
                                "frac": (j + rng.uniform(0.25, 0.75)) / m})
        ops.append({"key": "fig4-left:closed", "kind": "closed", "preset": "fig4-left"})
        rng.shuffle(ops)
        self.ops = ops
        self.warmup = {"key": "warmup", "kind": "adaptive", "preset": "fig2", "frac": 0.5}
        self._params = {name: preset(name) for name, _, _ in ORBIT_STARTS}

    def execute(self, op):
        p = self._params[op["preset"]]
        if op["kind"] == "closed":
            return sw.find_closed_orbit(p)
        co, shifted = sw.SteadyCoeffs.from_params(p).normalized()
        period = 2.0 * math.pi / p.f
        Y0 = 0.98 * op["frac"] * p.k * (p.h - p.a)
        if op["kind"] == "adaptive":
            traj = sw.integrate_steady(math.pi, Y0, co, ADAPTIVE_PERIODS * period,
                                       shifted=shifted)
            return traj, list(swpaths.trajectory_csv_rows(traj))
        traj = sw.integrate_steady(math.pi, Y0, co, MIDPOINT_PERIODS * period,
                                   method="midpoint",
                                   dt=period / MIDPOINT_STEPS_PER_PERIOD,
                                   shifted=shifted)
        return traj, None

    def check(self, op, result) -> bytes:
        if op["kind"] == "closed":
            _require(result is not None and result.verified,
                     "fig4-left closed orbit not found or not verified")
            return repr((result.Y_level, result.tau, result.x_close_err,
                         result.y_close_err)).encode()
        traj, rows = result
        _require(not traj.truncated, "trajectory truncated")
        if op["kind"] == "adaptive":
            _require(traj.h_drift_scaled < ADAPTIVE_H_AUDIT,
                     f"H drift {traj.h_drift_scaled:.3e} over the audit bound")
            _require(len(rows) == len(traj.t) + 1 and rows[0] == swpaths.TRAJECTORY_HEADER,
                     "trajectory CSV row count")
            return "\n".join(rows).encode()
        _require(len(traj.t) == MIDPOINT_PERIODS * MIDPOINT_STEPS_PER_PERIOD + 1,
                 "midpoint step count")
        _require(traj.h_drift_scaled < MIDPOINT_H_AUDIT,
                 f"midpoint H drift {traj.h_drift_scaled:.3e} over the audit bound")
        return b"".join(a.tobytes() for a in (traj.t, traj.X, traj.Y, traj.H))


# ----------------------------------------------------------------------
# field-grid: the scalar grid export and the array residual report
# ----------------------------------------------------------------------

GRID_PRESETS = ("fig1", "fig2", "fig3", "fig4-left")
GRID_SHAPES = ((30, 80), (40, 60), (48, 50), (50, 48), (60, 40), (80, 30))
RESIDUAL_OPS_PER_PRESET = 4
RESIDUAL_POINTS = 10_000
GRID_SPOT_ROWS = 16


class FieldGrid(Workload):
    """Per round: one 2400-point ``write_field_grid`` per preset and four
    10^4-point residual reports per preset (the ``validate`` sampling box:
    three periods, three wavelengths, the full depth).

    Grid shape and time, and every residual sample point, come from the
    seed; the point count per grid is fixed so grid cost does not depend
    on the seed.
    """

    name = "field-grid"
    round_s = 0.85

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = self.rng
        nrng = np.random.default_rng(rng.getrandbits(64))
        self._params = {name: preset(name) for name in GRID_PRESETS}
        ops = []
        for name in GRID_PRESETS:
            p = self._params[name]
            period = 2.0 * math.pi / p.f
            nx, ny = rng.choice(GRID_SHAPES)
            ops.append({"key": f"{name}:grid", "kind": "grid", "preset": name,
                        "t": rng.random() * period, "nx": nx, "ny": ny,
                        "spot": sorted(rng.sample(range(nx * ny), GRID_SPOT_ROWS))})
            for j in range(RESIDUAL_OPS_PER_PRESET):
                ops.append({"key": f"{name}:residuals:{j}", "kind": "residuals",
                            "preset": name,
                            "t": nrng.uniform(0.0, 3.0 * period, RESIDUAL_POINTS),
                            "x": nrng.uniform(0.0, 3.0 * p.wavelength, RESIDUAL_POINTS),
                            "y": nrng.uniform(0.0, p.h, RESIDUAL_POINTS)})
        rng.shuffle(ops)
        self.ops = ops
        self.warmup = {"key": "warmup", "kind": "grid", "preset": "fig2", "t": 0.0,
                       "nx": 48, "ny": 50, "spot": list(range(GRID_SPOT_ROWS))}

    def _grid_axes(self, op):
        p = self._params[op["preset"]]
        return (np.linspace(0.0, p.wavelength, op["nx"]),
                np.linspace(0.0, p.h + p.a, op["ny"]))

    def execute(self, op):
        p = self._params[op["preset"]]
        if op["kind"] == "grid":
            path = self.work_dir / f"{op['key'].replace(':', '-')}.csv"
            xg, yg = self._grid_axes(op)
            sw.write_field_grid(path, p, t=op["t"], x_grid=xg, y_grid=yg)
            return path
        return sw.field_identity_residuals(op["t"], op["x"], op["y"], p)

    def check(self, op, result) -> bytes:
        p = self._params[op["preset"]]
        if op["kind"] == "residuals":
            tol = 1e-10
            for label in ("div", "curl_defect", "bed_v", "kinematic_defect"):
                worst = float(np.max(np.abs(getattr(result, label))))
                _require(worst < tol, f"{label} residual {worst:.3e}")
            worst = float(np.max(np.abs(result.dynamic_defect)))
            _require(worst < 1e-9 * p.g * p.a, f"dynamic residual {worst:.3e}")
            return b"".join(np.ascontiguousarray(np.broadcast_to(
                a, op["t"].shape), dtype=float).tobytes() for a in result)
        blob = result.read_bytes()
        lines = blob.decode().splitlines()
        _require(len(lines) == op["nx"] * op["ny"] + 1, "grid row count")
        _require(lines[0] == "x,y,t,u,v,P,eta_flag", "grid header")
        # Spot rows against the closed-form fields restated from the
        # module documentation (x outer, y inner).
        xg, yg = self._grid_axes(op)
        t = op["t"]
        for idx in op["spot"]:
            cells = lines[idx + 1].split(",")
            x, y = xg[idx // op["ny"]], yg[idx % op["ny"]]
            theta = p.k * x - p.f * t
            ky = p.k * y
            u = -p.omega * y + p.A * math.cos(theta) * math.cosh(ky)
            v = p.A * math.sin(theta) * math.sinh(ky)
            P = p.g * (p.h - y) + (p.A / p.k) * math.cos(theta) * (
                (p.f + p.k * p.omega * y) * math.cosh(ky) - p.omega * math.sinh(ky))
            inside = 0.0 <= y <= p.h + p.a * math.cos(theta)
            got = [float(c) for c in cells[:6]]
            want = [x, y, t, u, v, P]
            scale = 1.0 + abs(p.omega) * p.h + abs(p.A) * math.cosh(p.k * (p.h + p.a)) + p.g * p.h
            _require(all(abs(g_ - w_) <= 1e-12 * scale for g_, w_ in zip(got, want)),
                     f"grid row {idx} differs from the closed form")
            _require(cells[6] == ("inside" if inside else "outside"), "grid fluid flag")
        return blob


WORKLOADS = {cls.name: cls for cls in (CliReadme, Sweep, Orbits, FieldGrid)}

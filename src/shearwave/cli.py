"""Command-line front end.

Commands: dispersion, portrait, paths, drift, bifurcation, validate.
Exit codes: 0 ok, 2 bad input, 3 I/O failure, 4 numerical failure.

Outputs are deterministic: identical inputs produce byte-identical CSV and
JSON files (fixed float formatting, fixed sample grids, fixed RNG seed for
the validation sampler, whose ``random.Random`` stream Python keeps the
same across versions).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import random
import re
import sys
from pathlib import Path

from . import params as wp
from .errors import DomainError, NumericsError, ShearwaveError, UnsupportedConfig
from .params import WaveParams, classify_regime, dispersion_residual

# The solver modules are imported inside the commands that use them, so
# each command loads only what it runs: ``dispersion`` and ``validate`` need
# none of them, ``bifurcation``, ``portrait``, ``paths`` and ``drift`` only
# the numpy-free ``steady``, ``phase`` and ``drift``.  No command loads
# numpy except ``validate --grid``, which writes through ``fields``.

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

#: What ``--format`` may name: csv and json, and svg for ``portrait`` only.
_FORMATS = ("csv", "json")
_PORTRAIT_FORMATS = (*_FORMATS, "svg")

_VALIDATE_SEED = 20260810
_VALIDATE_POINTS = 10000

#: Bundled scenarios.  The numeric values are implementation choices; each
#: records the inequalities it was constructed to satisfy.
PRESETS = {
    "fig1": {
        "params": dict(g=9.81, h=1.0, k=1.0, a=0.01, omega=0.0, s=0.0,
                       branch="plus"),
        "doc": "Irrotational reference case: one saddle above the crest, "
               "bounded orbits below its level curve.",
    },
    "fig2": {
        "params": dict(g=9.81, h=1.0, k=1.0, a=0.01, omega=-6.0, s=0.0,
                       branch="minus"),
        "doc": "Strong counter-current (c + h*omega < 0, right-going wave on "
               "the minus branch): interior wave, cat's-eye vortex between "
               "two critical layers, and a surface wave.",
    },
    "fig3": {
        "params": dict(g=9.81, h=1.0, k=1.0, a=0.01, omega=-1.2, s=0.0,
                       branch="plus"),
        "doc": "Just past the negative-vorticity branching point on the plus "
               "branch; pairs with the default bifurcation sweep 0 to -6.",
        "scan": dict(omega_start=0.0, omega_stop=-6.0, steps=61),
    },
    "fig4-left": {
        "params": dict(g=9.81, h=1.0, k=0.12, a=3e-4, omega=35.0, s=0.0,
                       branch="plus"),
        "doc": "Large positive vorticity, tiny amplitude, long wave. "
               "Constructed so that, with Y* = 0.095 and band width 0.02: "
               "omega*Y* - 0.02 > pi, Ak*cosh(Y* + 0.02) < 0.02, the "
               "stagnation height exceeds the band, the band sits inside "
               "the fluid, and Ak < f (near-bed orbits transit).  Near-bed "
               "drift is forward, the band drifts backward, so a closed "
               "orbit exists between them.",
        "backward_band": (0.095, 0.02),
    },
    "fig4-right": {
        "params": dict(g=9.81, h=1.0, k=1.0, a=0.01, omega=-6.0, s=0.0,
                       branch="minus"),
        "doc": "Drift view of the strong counter-current case: all layers "
               "drift forward; the vortex center advances in a straight "
               "line at speed f/k.",
    },
}


# ----------------------------------------------------------------------
# Parameter sources
# ----------------------------------------------------------------------

def _read_utf8(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{what} {path} is not UTF-8 "
                          f"(byte {exc.start}: {exc.reason})") from None


def _path(text: str, option: str) -> Path:
    """``text`` as a path; DomainError if it is empty and so names no file."""
    if not text:
        raise DomainError(f"{option} '' names no file")
    return Path(text)


def _load_scenario_file(path: Path) -> dict:
    text = _read_utf8(path, "scenario file")
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        return wp.json_mapping(text)
    return wp.kv_mapping(text)


def resolve_params(args) -> tuple[str, WaveParams]:
    """Build (scenario_name, WaveParams) from preset/scenario/inline flags.

    Precedence: preset < scenario file < inline flags.  Derived values in
    a scenario file (c, f, A) are ignored and recomputed.
    """
    mapping: dict = {}
    name = "scenario"
    preset = getattr(args, "preset", None)
    if preset:
        mapping.update(PRESETS[preset]["params"])
        name = preset
    scenario = getattr(args, "scenario", None)
    if scenario is not None:
        path = _path(scenario, "--scenario")
        file_map = _load_scenario_file(path)
        name = file_map.pop("name", path.stem)
        # The name is one directory level below --out: no separators.
        if (not isinstance(name, str) or name in ("", ".", "..")
                or any(c in name for c in "/\\\0")):
            raise DomainError(f"scenario name {name!r} is not a plain directory "
                              "name (a string, no path separators, not '.' or '..')")
        mapping.update(file_map)
    for key in ("g", "h", "a", "k", "omega", "branch"):
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    if not mapping:
        raise DomainError(
            "no parameters given: use --preset, --scenario, or inline flags")
    return name, wp.from_mapping(mapping)


def _formats(args) -> set[str]:
    allowed = _PORTRAIT_FORMATS if args.command == "portrait" else _FORMATS
    formats = {piece.strip() for piece in args.format.split(",") if piece.strip()}
    if not formats:
        raise DomainError(f"--format {args.format!r} names no format: "
                          f"give a comma list of {','.join(allowed)}")
    unknown = formats - set(allowed)
    if unknown:
        raise DomainError(f"{args.command} writes {','.join(allowed)}, "
                          f"not {','.join(sorted(unknown))}")
    return formats


def _write(files: dict):
    """Write each ``{path: body}``: a dict as indented JSON, a str as it is,
    any other iterable one row per line, and a callable (a body that costs
    time to build) as what it returns.  Parent directories are made at the
    first write.  Bodies go to temporary files renamed onto their paths once
    all are written, so a write that fails keeps what was there as it was: it
    removes what this call made, newest first, before the error propagates."""
    made = []  # what this call creates, parents first
    staged = {}  # path: its temporary file
    try:
        for path, body in files.items():
            if callable(body):
                body = body()
            if isinstance(body, dict):
                body = json.dumps(body, indent=2)
            if path.is_dir():  # a rename onto it would fail after others were done
                raise IsADirectoryError(f"{path} is a directory")
            staged[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            made += [new for new in (*reversed(path.parents), staged[path]) if not new.exists()]
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(staged[path], "w", encoding="utf-8", newline="\n") as fh:
                if isinstance(body, str):
                    fh.write(body)
                else:
                    for row in body:
                        fh.write(row + "\n")
        for path, temporary in staged.items():
            os.replace(temporary, path)
    except BaseException:
        for path in reversed(made):
            with contextlib.suppress(OSError):
                (path.rmdir if path.is_dir() else path.unlink)()
        raise


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
# A writing command returns (scenario name, summary line, {file name: body})
# and writes nothing: ``main`` writes the files once the run has succeeded.

def cmd_dispersion(args) -> int:
    # A bed speed shifts c and f = k*c alone: A and the residual are the bed frame's.
    c = wp.solve_dispersion(args.g, args.h, args.k, args.omega,
                            s=args.s, branch=args.branch)
    wp._require_finite(c=c)
    p = WaveParams.solve(args.g, args.h, args.k, args.omega,
                         a=args.a, branch=args.branch)
    regime = None
    if c > 0 and args.s == 0.0:
        regime = classify_regime(p)._asdict()
    report = {"c": c, "f": p.k * c, "A": p.A, "regime": regime,
              "residual": dispersion_residual(p)}
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_portrait(args) -> tuple[str, str, dict]:
    from . import phase as wphase

    name, p = resolve_params(args)
    portrait = wphase.build_phase_portrait(p, ymax=args.ymax,
                                          resolution=args.resolution)
    kinds = ",".join(cp.kind for cp in portrait.critical_points)
    return name, (f"{len(portrait.critical_points)} critical point(s) [{kinds}], "
                  f"{len(portrait.separatrix_groups)} separatrix(es)"), {
        "portrait.json": wphase.portrait_summary(portrait),
        "isoclines.csv": wphase.isocline_csv_rows(portrait),
        "separatrices.csv": wphase.separatrix_csv_rows(portrait),
        "portrait.svg": functools.partial(wphase.portrait_svg, portrait),
    }


def _default_seeds(p: WaveParams) -> list[tuple[float, float]]:
    top = p.k * (p.h - p.a)
    fractions = (0.15, 0.35, 0.55, 0.75, 0.9)
    seeds = [(math.pi, 0.0)]
    seeds += [(math.pi, q * top) for q in fractions]
    return seeds


def cmd_paths(args) -> tuple[str, str, dict]:
    from . import drift as wdrift
    from .steady import SteadyCoeffs

    name, p = resolve_params(args)
    co_n, shifted = SteadyCoeffs.from_params(p).normalized()
    if args.seeds is not None:
        seeds = wdrift.read_seeds(_read_utf8(_path(args.seeds, "--seeds"), "seeds file"))
    else:
        seeds = _default_seeds(p)
    t_end = args.t_end if args.t_end is not None else args.periods * 2.0 * math.pi / abs(p.f)
    trajs = [wdrift.steady_trajectory(X0, Y0, co_n, t_end, rtol=args.rtol,
                                      shifted=shifted) for X0, Y0 in seeds]
    files = {f"trajectory_{idx:03d}.csv": wdrift.trajectory_csv_rows(traj)
             for idx, traj in enumerate(trajs)}
    files["paths.json"] = {"scenario": name, "t_end": t_end, "trajectories": [
        {"index": idx, "X0": X0, "Y0": Y0, "n_steps": len(traj.t),
         "h_drift_scaled": traj.h_drift_scaled, "truncated": traj.truncated}
        for idx, ((X0, Y0), traj) in enumerate(zip(seeds, trajs))]}
    worst = max((traj.h_drift_scaled for traj in trajs), default=0.0)
    return name, (f"{len(seeds)} trajectories over t_end={t_end:.6g}s, "
                  f"worst scaled H drift {worst:.3e}"), files


def cmd_drift(args) -> tuple[str, str, dict]:
    from . import drift as wdrift

    name, p = resolve_params(args)
    reports = wdrift.drift_profile(p, n=args.levels)
    counts: dict = {}
    for r in reports:
        counts[r.direction] = counts.get(r.direction, 0) + 1
    summary = {"scenario": name, "n_levels": len(reports), "directions": counts}
    if args.find_closed:
        orbit = wdrift.find_closed_orbit(p)
        summary["closed_orbit"] = None if orbit is None else orbit._asdict()
    return name, f"drift over {len(reports)} levels {counts}", {
        "drift.csv": wdrift.drift_csv_rows(reports, p.k), "drift.json": summary}


def cmd_bifurcation(args) -> tuple[str, str, dict]:
    from . import steady as wsteady

    name, p = resolve_params(args)
    # Built-in defaults, then the preset's scan if the flow keeps the preset's
    # vorticity, then the flags given.
    preset = PRESETS.get(args.preset, {"params": {}})
    sweep = {"omega_start": 0.0, "omega_stop": p.omega, "steps": 61}
    if p.omega == preset["params"].get("omega"):
        sweep.update(preset.get("scan", {}))
    sweep.update({key: value for key in sweep
                  if (value := getattr(args, key)) is not None})
    scan = wsteady.bifurcation_scan(p.g, p.h, p.k, p.a, **sweep, branch=p.branch)
    counts = sorted({r.count for r in scan.rows})
    return name, f"counts {counts}, transition omega* = {scan.omega_star}", {
        "bifurcation.csv": ["omega,count,kinds"] + [
            f"{r.omega:.17g},{r.count},{'+'.join(r.kinds)}" for r in scan.rows],
        "bifurcation.json": {
            "scenario": name, "branch": scan.branch,
            "omega_range": [sweep["omega_start"], sweep["omega_stop"]],
            "steps": sweep["steps"], "counts": counts,
            "omega_star": scan.omega_star,
        },
    }


def _validate_points(p: WaveParams) -> tuple[list[float], list[float], list[float]]:
    """The validation sample: t over three periods 2*pi/|f|, x over three
    wavelengths, y over the water column, drawn from ``_VALIDATE_SEED``."""
    draw = random.Random(_VALIDATE_SEED).random
    n = _VALIDATE_POINTS
    spans = (3.0 * 2.0 * math.pi / abs(p.f), 3.0 * p.wavelength, p.h)
    return tuple([span * draw() for _ in range(n)] for span in spans)


def _max_abs(values) -> float:
    """max |v| over ``values``, NaN when any value is NaN, as numpy's max
    gives: a sum of magnitudes is NaN only through a NaN term."""
    mags = list(map(abs, values))
    total = sum(mags)
    return total if total != total else max(mags)


#: Points whose residuals ``_identity_maxima`` holds at once.
_MAXIMA_CHUNK = 1024


def _identity_maxima(t, x, y, p: WaveParams, m=math) -> tuple[float, ...]:
    """max |residual| of the five ``params.field_identities`` over the points
    (t, x, y), one at a time on ``m``; numpy's cosh and sinh may differ from
    ``math``'s in the last ulp, so ``m=numpy`` gives the array report's bits.
    The maxima are taken ``_MAXIMA_CHUNK`` points at a time, together with
    the maxima so far, so memory stays bounded."""
    if any(not v >= 0.0 for v in y):  # NaN too
        raise DomainError("y must be nonnegative (the bed is at y = 0)")
    wp.check_hyperbolic(p.k * max(y, default=0.0))  # max |k*y|: no y is negative
    rows, maxima = map(wp.field_identities(p, m), t, x, y), ()
    while chunk := list(itertools.islice(rows, _MAXIMA_CHUNK)):
        if maxima:
            chunk.append(maxima)
        maxima = tuple(_max_abs(values) for values in zip(*chunk))
    return tuple(map(float, maxima))


def cmd_validate(args) -> int:
    name, p = resolve_params(args)
    grid = None if args.grid is None else _path(args.grid, "--grid")
    if grid is not None:
        try:
            import numpy as np
        except ImportError:
            raise UnsupportedConfig("--grid needs numpy, which cannot be imported") from None

        from .fields import field_grid_rows
    div, curl, bed, kin, dyn = _identity_maxima(*_validate_points(p), p)
    dyn_tol = 1e-9 * p.g * p.a if p.a > 0 else 1e-12
    checks = [
        ("divergence", div, 1e-10),
        ("curl_defect", curl, 1e-10),
        ("bed_velocity", bed, 1e-10),
        ("kinematic_defect", kin, 1e-10),
        ("dynamic_defect", dyn, dyn_tol),
        ("dispersion_residual", dispersion_residual(p), 1e-10),
    ]
    failed = [label for label, value, tol in checks if not value < tol]
    for label, value, tol in checks:
        line = f"{name}: {label:>20s}  max|residual| = {value:.3e}  (tol {tol:.1e})  "
        if not value < tol:
            print(line + "FAIL")  # --quiet keeps the rows that fail
        elif not args.quiet:
            print(line + "PASS")
    if failed:
        raise NumericsError(f"{len(failed)} field identities exceed tolerance",
                            diagnostics={"failed": failed})
    if grid is not None:
        xg = np.linspace(0.0, p.wavelength, 25)
        yg = np.linspace(0.0, p.h + p.a, 13)
        _write({grid: field_grid_rows(p, 0.0, xg, yg)})
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_param_source(sub: argparse.ArgumentParser, formats=_FORMATS):
    """The parameter options, --quiet and, where ``formats`` names what the
    command writes, --out and --format.  No --s: ``WaveParams.solve`` refuses s != 0."""
    sub.add_argument("--preset", choices=sorted(PRESETS))
    sub.add_argument("--scenario", help="key = value or JSON parameter file")
    sub.add_argument("--g", type=float)
    sub.add_argument("--h", type=float)
    sub.add_argument("--a", type=float)
    sub.add_argument("--k", type=float)
    sub.add_argument("--omega", type=float)
    sub.add_argument("--branch", choices=wp.BRANCHES)
    if formats:
        sub.add_argument("--out", default="out", help="output directory (default: out)")
        sub.add_argument("--format", default="csv,json",
                         help=f"comma list of {','.join(formats)} (default: csv,json)")
    sub.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shearwave",
        description="Linear gravity waves on a constant-vorticity current: "
                    "dispersion, steady-frame phase portraits, particle drift.")
    subs = parser.add_subparsers(dest="command", required=True)
    # Options match only in full: --s must not read as a prefix of --scenario.
    command = functools.partial(subs.add_parser, allow_abbrev=False)

    disp = command("dispersion", help="solve the dispersion relation")
    disp.add_argument("--g", type=float, required=True)
    disp.add_argument("--h", type=float, required=True)
    disp.add_argument("--k", type=float, required=True)
    disp.add_argument("--omega", type=float, required=True)
    disp.add_argument("--a", type=float, default=0.0)
    disp.add_argument("--s", type=float, default=0.0)
    disp.add_argument("--branch", choices=wp.BRANCHES, default="plus")
    disp.set_defaults(func=cmd_dispersion)

    port = command("portrait", help="phase portrait of one period strip")
    _add_param_source(port, _PORTRAIT_FORMATS)
    port.add_argument("--ymax", type=float, default=wp.Y_SEARCH_MAX)
    port.add_argument("--resolution", type=int, default=481)
    port.set_defaults(func=cmd_portrait)

    pth = command("paths", help="integrate particle trajectories")
    _add_param_source(pth)
    pth.add_argument("--seeds", help="file with one 'X0 Y0' pair per line")
    pth.add_argument("--t-end", type=float, default=None)
    pth.add_argument("--periods", type=float, default=10.0)
    pth.add_argument("--rtol", type=float, default=1e-10)
    pth.set_defaults(func=cmd_paths)

    drf = command("drift", help="per-period drift over depth levels")
    _add_param_source(drf)
    drf.add_argument("--levels", type=int, default=33)
    drf.add_argument("--find-closed", action="store_true",
                     help="also search for a closed physical orbit")
    drf.set_defaults(func=cmd_drift)

    bif = command("bifurcation", help="critical-point census over vorticity")
    _add_param_source(bif)
    bif.add_argument("--omega-start", type=float, default=None)
    bif.add_argument("--omega-stop", type=float, default=None)
    bif.add_argument("--steps", type=int, default=None)
    bif.set_defaults(func=cmd_bifurcation)

    val = command("validate", help="field-identity residual report")
    _add_param_source(val, ())
    val.add_argument("--grid", help="also write a field grid CSV to this path")
    val.set_defaults(func=cmd_validate)

    for sub in subs.choices.values():   # read -6e0 and -inf as values, as argparse reads -6
        sub._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "format" not in args:  # dispersion and validate print their results
            return args.func(args)
        formats = _formats(args)
        out = _path(args.out, "--out")
        name, line, files = args.func(args)
        out /= name
        _write({out / file: body for file, body in files.items()
                if file.rpartition(".")[2] in formats})
        if not args.quiet:
            print(f"{name}: {line} -> {out}")
        return EXIT_OK
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ShearwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

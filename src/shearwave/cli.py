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
import json
import math
import random
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
    if scenario:
        path = Path(scenario)
        file_map = _load_scenario_file(path)
        name = str(file_map.pop("name", path.stem))
        mapping.update(file_map)
    for key in ("g", "h", "a", "k", "omega", "s", "branch"):
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    if not mapping:
        raise DomainError(
            "no parameters given: use --preset, --scenario, or inline flags")
    return name, wp.from_mapping(mapping)


def _out_dir(args, name: str) -> Path:
    # The name comes from the scenario file: it must stay one directory
    # level below --out.  The directory is made at the first write, so a
    # run that fails before writing leaves none behind.
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise DomainError(f"scenario name {name!r} is not a plain directory "
                          "name (no path separators, not '.' or '..')")
    return Path(getattr(args, "out", "out")) / name


def _formats(args) -> set[str]:
    raw = getattr(args, "format", None) or "csv,json"
    formats = {piece.strip() for piece in raw.split(",") if piece.strip()}
    unknown = formats - {"csv", "json", "svg"}
    if unknown:
        raise DomainError(f"unknown output formats: {sorted(unknown)}")
    return formats


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_rows(path: Path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(row + "\n")


def _say(args, message: str):
    if not getattr(args, "quiet", False):
        print(message)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_dispersion(args) -> int:
    p = WaveParams.solve(args.g, args.h, args.k, args.omega,
                         a=args.a, s=args.s, branch=args.branch)
    regime = None
    if p.c > 0 and p.s == 0.0:
        r = classify_regime(p)
        regime = {"vorticity_sign": r.vorticity_sign, "crest_shift": r.crest_shift,
                  "supercritical": r.supercritical,
                  "branching_positive": r.branching_positive}
    report = {"c": p.c, "f": p.f, "A": p.A, "regime": regime,
              "residual": dispersion_residual(p)}
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_portrait(args) -> int:
    from . import phase as wphase

    name, p = resolve_params(args)
    formats = _formats(args)
    out = _out_dir(args, name)
    portrait = wphase.build_phase_portrait(p, ymax=args.ymax,
                                          resolution=args.resolution)
    if "json" in formats:
        _write_text(out / "portrait.json", wphase.portrait_json(portrait))
    if "csv" in formats:
        _write_rows(out / "isoclines.csv", wphase.isocline_csv_rows(portrait))
        _write_rows(out / "separatrices.csv", wphase.separatrix_csv_rows(portrait))
    if "svg" in formats:
        _write_text(out / "portrait.svg", wphase.portrait_svg(portrait))
    kinds = ",".join(cp.kind for cp in portrait.critical_points)
    _say(args, f"{name}: {len(portrait.critical_points)} critical point(s) "
               f"[{kinds}], {len(portrait.separatrix_groups)} separatrix(es) "
               f"-> {out}")
    return EXIT_OK


def _default_seeds(p: WaveParams) -> list[tuple[float, float]]:
    top = p.k * (p.h - p.a)
    fractions = (0.15, 0.35, 0.55, 0.75, 0.9)
    seeds = [(math.pi, 0.0)]
    seeds += [(math.pi, q * top) for q in fractions]
    return seeds


def cmd_paths(args) -> int:
    from . import drift as wdrift
    from .steady import SteadyCoeffs

    name, p = resolve_params(args)
    formats = _formats(args)
    out = _out_dir(args, name)
    co = SteadyCoeffs.from_params(p)
    co_n, shifted = co.normalized()
    if args.seeds:
        seeds = wdrift.read_seeds(_read_utf8(Path(args.seeds), "seeds file"))
    else:
        seeds = _default_seeds(p)
    t_end = args.t_end if args.t_end is not None else args.periods * 2.0 * math.pi / p.f
    summary = {"scenario": name, "t_end": t_end, "trajectories": []}
    for idx, (X0, Y0) in enumerate(seeds):
        traj = wdrift.steady_trajectory(X0, Y0, co_n, t_end, rtol=args.rtol,
                                        shifted=shifted)
        if "csv" in formats:
            _write_rows(out / f"trajectory_{idx:03d}.csv",
                        wdrift.trajectory_csv_rows(traj))
        summary["trajectories"].append({
            "index": idx, "X0": X0, "Y0": Y0,
            "n_steps": len(traj.t),
            "h_drift_scaled": traj.h_drift_scaled,
            "truncated": traj.truncated,
        })
    if "json" in formats:
        _write_text(out / "paths.json", json.dumps(summary, indent=2))
    worst = max((t["h_drift_scaled"] for t in summary["trajectories"]), default=0.0)
    _say(args, f"{name}: {len(seeds)} trajectories over t_end={t_end:.6g}s, "
               f"worst scaled H drift {worst:.3e} -> {out}")
    return EXIT_OK


def cmd_drift(args) -> int:
    from . import drift as wdrift

    name, p = resolve_params(args)
    formats = _formats(args)
    out = _out_dir(args, name)
    reports = wdrift.drift_profile(p, n=args.levels)
    if "csv" in formats:
        _write_rows(out / "drift.csv", wdrift.drift_csv_rows(reports, p.k))
    counts: dict = {}
    for r in reports:
        counts[r.direction] = counts.get(r.direction, 0) + 1
    summary = {"scenario": name, "n_levels": len(reports), "directions": counts}
    if args.find_closed:
        orbit = wdrift.find_closed_orbit(p)
        if orbit is None:
            summary["closed_orbit"] = None
        else:
            summary["closed_orbit"] = {
                "Y_level": orbit.Y_level, "tau": orbit.tau,
                "x_close_err": orbit.x_close_err,
                "y_close_err": orbit.y_close_err,
                "verified": orbit.verified,
            }
    if "json" in formats:
        _write_text(out / "drift.json", json.dumps(summary, indent=2))
    _say(args, f"{name}: drift over {len(reports)} levels {counts} -> {out}")
    return EXIT_OK


def cmd_bifurcation(args) -> int:
    from . import steady as wsteady

    name, p = resolve_params(args)
    formats = _formats(args)
    out = _out_dir(args, name)
    preset = getattr(args, "preset", None)
    scan_defaults = PRESETS.get(preset, {}).get("scan", {}) if preset else {}
    omega_start = args.omega_start if args.omega_start is not None else \
        scan_defaults.get("omega_start", 0.0)
    omega_stop = args.omega_stop if args.omega_stop is not None else \
        scan_defaults.get("omega_stop", p.omega)
    steps = args.steps if args.steps is not None else \
        scan_defaults.get("steps", 61)
    scan = wsteady.bifurcation_scan(p.g, p.h, p.k, p.a, omega_start, omega_stop,
                                    steps, branch=p.branch, s=p.s)
    if "csv" in formats:
        rows = ["omega,count,kinds"]
        rows += [f"{r.omega:.17g},{r.count},{'+'.join(r.kinds)}" for r in scan.rows]
        _write_rows(out / "bifurcation.csv", rows)
    summary = {
        "scenario": name, "branch": scan.branch,
        "omega_range": [omega_start, omega_stop], "steps": steps,
        "counts": sorted({r.count for r in scan.rows}),
        "omega_star": scan.omega_star,
    }
    if "json" in formats:
        _write_text(out / "bifurcation.json", json.dumps(summary, indent=2))
    _say(args, f"{name}: counts {summary['counts']}, "
               f"transition omega* = {scan.omega_star} -> {out}")
    return EXIT_OK


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


def _identity_maxima(t, x, y, p: WaveParams, m=math) -> tuple[float, ...]:
    """max |residual| of the five field identities of
    ``fields.field_identity_residuals`` (P0 = 0) over the points (t, x, y),
    in one scalar loop with its operand order in every expression.

    ``m`` is the arithmetic module of the transcendentals, as in
    ``SteadyCoeffs.H``; numpy's cosh and sinh may differ from ``math``'s
    in the last ulp, so ``m=numpy`` reproduces the array report's bits.
    """
    wp.check_hyperbolic(p.k * max(y, default=0.0))
    A, k, f, omega = p.A, p.k, p.f, p.omega
    a, h, g = p.a, p.h, p.g
    sin, cos, cosh, sinh = m.sin, m.cos, m.cosh, m.sinh
    mAk, Ak, sinh_0, sinh_kh = -A * k, A * k, math.sinh(0.0), math.sinh(k * h)
    mak, mOh, af, A_k = -a * k, -omega * h, a * f, A / k
    kh, P0 = k * h, 0.0
    p_shape = (f + k * omega * h) * m.cosh(kh) - omega * m.sinh(kh)
    div, curl, bed, kin, dyn = [], [], [], [], []
    for tv, xv, yv in zip(t, x, y):
        theta = k * xv - f * tv
        sin_t, cos_t = sin(theta), cos(theta)
        ky = k * yv
        cosh_ky = cosh(ky)
        div.append(mAk * sin_t * cosh_ky + Ak * sin_t * cosh_ky)     # u_x + v_y
        v_x = Ak * cos_t * sinh(ky)
        curl.append((v_x - (-omega + v_x)) - omega)                   # (v_x - u_y) - omega
        bed.append(A * sin_t * sinh_0)
        kin.append(A * sin_t * sinh_kh - (af * sin_t + mOh * (mak * sin_t)))
        dyn.append((P0 + A_k * cos_t * p_shape) - P0 - g * ((h + a * cos_t) - h))
    return tuple(float(_max_abs(values)) for values in (div, curl, bed, kin, dyn))


def _validate_report(p: WaveParams) -> list[dict]:
    wp._require_bed_frame(p)  # the field formulas assume s = 0
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
    return [{"identity": label, "max_residual": value, "tolerance": tol,
             "ok": value < tol} for label, value, tol in checks]


def cmd_validate(args) -> int:
    name, p = resolve_params(args)
    report = _validate_report(p)
    failed = [row for row in report if not row["ok"]]
    for row in report:
        line = (f"{name}: {row['identity']:>20s}  max|residual| = "
                f"{row['max_residual']:.3e}  (tol {row['tolerance']:.1e})  ")
        if row["ok"]:
            _say(args, line + "PASS")
        else:
            print(line + "FAIL")  # --quiet keeps the rows that fail
    if args.grid:
        import numpy as np

        from .fields import write_field_grid

        xg = np.linspace(0.0, p.wavelength, 25)
        yg = np.linspace(0.0, p.h + p.a, 13)
        write_field_grid(Path(args.grid), p, t=0.0, x_grid=xg, y_grid=yg)
    if failed:
        raise NumericsError(f"{len(failed)} field identities exceed tolerance",
                            diagnostics={"failed": [row["identity"] for row in failed]})
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_param_source(sub: argparse.ArgumentParser):
    sub.add_argument("--preset", choices=sorted(PRESETS))
    sub.add_argument("--scenario", help="key = value or JSON parameter file")
    sub.add_argument("--g", type=float)
    sub.add_argument("--h", type=float)
    sub.add_argument("--a", type=float)
    sub.add_argument("--k", type=float)
    sub.add_argument("--omega", type=float)
    sub.add_argument("--s", type=float)
    sub.add_argument("--branch", choices=wp.BRANCHES)
    sub.add_argument("--out", default="out", help="output directory (default: out)")
    sub.add_argument("--format", default="csv,json",
                     help="comma list of csv,json,svg (default: csv,json)")
    sub.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shearwave",
        description="Linear gravity waves on a constant-vorticity current: "
                    "dispersion, steady-frame phase portraits, particle drift.")
    subs = parser.add_subparsers(dest="command", required=True)

    disp = subs.add_parser("dispersion", help="solve the dispersion relation")
    disp.add_argument("--g", type=float, required=True)
    disp.add_argument("--h", type=float, required=True)
    disp.add_argument("--k", type=float, required=True)
    disp.add_argument("--omega", type=float, required=True)
    disp.add_argument("--a", type=float, default=0.0)
    disp.add_argument("--s", type=float, default=0.0)
    disp.add_argument("--branch", choices=wp.BRANCHES, default="plus")
    disp.set_defaults(func=cmd_dispersion)

    port = subs.add_parser("portrait", help="phase portrait of one period strip")
    _add_param_source(port)
    port.add_argument("--ymax", type=float, default=wp.Y_SEARCH_MAX)
    port.add_argument("--resolution", type=int, default=481)
    port.set_defaults(func=cmd_portrait)

    pth = subs.add_parser("paths", help="integrate particle trajectories")
    _add_param_source(pth)
    pth.add_argument("--seeds", help="file with one 'X0 Y0' pair per line")
    pth.add_argument("--t-end", type=float, default=None)
    pth.add_argument("--periods", type=float, default=10.0)
    pth.add_argument("--rtol", type=float, default=1e-10)
    pth.set_defaults(func=cmd_paths)

    drf = subs.add_parser("drift", help="per-period drift over depth levels")
    _add_param_source(drf)
    drf.add_argument("--levels", type=int, default=33)
    drf.add_argument("--find-closed", action="store_true",
                     help="also search for a closed physical orbit")
    drf.set_defaults(func=cmd_drift)

    bif = subs.add_parser("bifurcation", help="critical-point census over vorticity")
    _add_param_source(bif)
    bif.add_argument("--omega-start", type=float, default=None)
    bif.add_argument("--omega-stop", type=float, default=None)
    bif.add_argument("--steps", type=int, default=None)
    bif.set_defaults(func=cmd_bifurcation)

    val = subs.add_parser("validate", help="field-identity residual report")
    _add_param_source(val)
    val.add_argument("--grid", help="also write a field grid CSV to this path")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, UnsupportedConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
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

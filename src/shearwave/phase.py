"""Steady-frame phase portraits on scalars.

The X-nullcline ("infinity isocline") of the steady system is the root set
of phi(Y; X) = Ak*cos(X)*cosh(Y) - omega*Y - f.  For nonnegative vorticity
it is a single convex graph over |X| < pi/2 and the portrait has exactly
one critical point per period strip, a saddle above the crest.  For
negative vorticity, once the amplitude is small enough that the branching
discriminant is positive, the isocline splits into two branches over
(pi/2, pi], three critical points appear (saddle, center, saddle ordered
by height) and the portrait gains an interior vortex (cat's-eye) between
two critical layers.

Separatrices are traced as level sets of the Hamiltonian rather than by
time integration: the stable/unstable manifolds of a saddle coincide with
the H = H(saddle) level curve, and level tracking does not accumulate
time-integration drift.

Like ``steady``, this module runs on ``math`` without numpy: points are
(X, Y) tuples and polylines are lists of them.  ``portrait`` re-exports
these names and gives the portrait its array face.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .errors import DomainError, NumericsError, TraceError
from .params import HYPERBOLIC_ARG_MAX, Y_SEARCH_MAX, Regime, WaveParams, classify_regime
from .steady import (GUARDED, CriticalPoint, SteadyCoeffs, find_critical_points,
                     isocline_roots, linspace)

#: Tolerances of the portrait machinery.
SADDLE_OFFSET = 1e-6
LEVEL_TOL = 1e-10       # corrector target |H - H_level|, scaled by (1 + |H_level|)
REAPPROACH_DIST = 1e-5  # terminate a trace this close to a critical point

#: Largest portrait height: the isocline search runs to 2*ymax, and cosh
#: overflows past HYPERBOLIC_ARG_MAX.
YMAX_LIMIT = HYPERBOLIC_ARG_MAX / 2.0

SEPARATRIX_DIRECTIONS = ("unstable+", "unstable-", "stable+", "stable-")


# ----------------------------------------------------------------------
# Separatrix tracing (level-set continuation)
# ----------------------------------------------------------------------

class SeparatrixTrace(NamedTuple):
    """One traced arm of a saddle's level set."""

    saddle: CriticalPoint
    direction: str          # one of SEPARATRIX_DIRECTIONS
    H_level: float
    points: list            # (X, Y) pairs; an (n, 2) array from ``portrait``
    termination: str        # strip_boundary | bed | ymax | critical_point | cap
    near_label: str = ""    # label of the critical point reached, if any


def _saddle_arm_direction(saddle: CriticalPoint, co: SteadyCoeffs,
                          direction: str) -> tuple[float, float]:
    """Unit tangent of the requested invariant-manifold arm at the saddle.

    The flow Jacobian at a critical point is [[Hxy, Hyy], [-Hxx, -Hxy]];
    its eigenvectors are tangent to the stable/unstable manifolds, which
    for a Hamiltonian saddle lie on the level-set asymptotes.
    """
    X, Y = saddle.X, saddle.Y
    Hxx, Hxy, Hyy = co.hessian(X, Y, math)
    disc = Hxy * Hxy - Hxx * Hyy
    if disc <= 0:
        raise NumericsError("no real manifold directions: not a saddle",
                            diagnostics={"X": X, "Y": Y, "disc": disc})
    lam = math.sqrt(disc) if direction.startswith("unstable") else -math.sqrt(disc)
    v_row1 = (Hyy, lam - Hxy)
    v_row2 = (-lam - Hxy, -Hxx)
    norm1, norm2 = math.hypot(*v_row1), math.hypot(*v_row2)
    v, norm = (v_row1, norm1) if norm1 >= norm2 else (v_row2, norm2)
    sign = -1.0 if direction.endswith("-") else 1.0
    return sign * (v[0] / norm), sign * (v[1] / norm)


def _correct_onto_level(p, H_level, co, tol, max_iter=12):
    """Newton along the gradient direction onto H = H_level."""
    x, y = p
    for _ in range(max_iter):
        r = co.H(x, y, GUARDED) - H_level
        if abs(r) <= tol:
            return (x, y), True
        gx, gy = co.H_X(x, y, GUARDED), co.H_Y(x, y, GUARDED)
        g2 = gx * gx + gy * gy
        if g2 == 0.0:
            return (x, y), False
        x -= r * gx / g2
        y -= r * gy / g2
    return (x, y), abs(co.H(x, y, GUARDED) - H_level) <= tol


def trace_separatrix(saddle: CriticalPoint, co: SteadyCoeffs, direction: str,
                     ymax: float = Y_SEARCH_MAX,
                     critical_points: list[CriticalPoint] | None = None,
                     max_points: int = 100000) -> SeparatrixTrace:
    """Trace one arm of the level set H = H(saddle) from the saddle.

    The trace is seeded a small offset along the chosen manifold tangent,
    corrected onto the level set, then continued by predictor steps along
    the level-set tangent with a Newton corrector along the gradient.
    It terminates at the strip boundary X = +-pi, at Y = 0, at Y = ymax,
    or on re-approach to a critical point.
    """
    if saddle.kind != "saddle":
        raise DomainError(f"separatrices emanate from saddles, got {saddle.kind!r}")
    if direction not in SEPARATRIX_DIRECTIONS:
        raise DomainError(f"direction must be one of {SEPARATRIX_DIRECTIONS}")
    if critical_points is None:
        critical_points = find_critical_points(co, y_cap=max(ymax, Y_SEARCH_MAX))
    # Proximity targets include the periodic translates at X - 2*pi.
    targets = []
    for cp in critical_points:
        targets.append((cp.X, cp.Y, cp.label))
        if cp.X != 0.0:
            targets.append((cp.X - 2.0 * math.pi, cp.Y, cp.label))

    H_level = saddle.H_value
    tol = LEVEL_TOL * (1.0 + abs(H_level))
    v = _saddle_arm_direction(saddle, co, direction)
    seed = (saddle.X + SADDLE_OFFSET * v[0], saddle.Y + SADDLE_OFFSET * v[1])
    seed, ok = _correct_onto_level(seed, H_level, co, tol)
    if not ok:
        raise TraceError("could not place the seed on the level set", partial=[],
                         diagnostics={"saddle": saddle.label, "direction": direction})

    points = [(float(saddle.X), float(saddle.Y)), seed]
    # Arms of a boundary saddle that point out of the strip are the mirror
    # images of inward arms of the periodic translate; stop right away.
    if abs(seed[0]) > math.pi or seed[1] < 0.0 or seed[1] > ymax:
        status = "strip_boundary" if abs(seed[0]) > math.pi else (
            "bed" if seed[1] < 0.0 else "ymax")
        return SeparatrixTrace(saddle=saddle, direction=direction,
                               H_level=H_level, points=points,
                               termination=status, near_label="")
    prev_dir = v
    ds = 1e-4
    ds_max = 0.05
    ds_min = 1e-10
    origin_active = False
    termination = "cap"
    near_label = ""

    def boundary_cross(p_prev, p_new):
        # Returns (point_on_boundary, status) or None.
        x0, y0 = p_prev
        x1, y1 = p_new
        crossings = []
        if y1 < 0.0 and y0 > 0.0:
            t = y0 / (y0 - y1)
            crossings.append((t, (x0 + t * (x1 - x0), 0.0), "bed"))
        if y1 > ymax and y0 < ymax:
            t = (ymax - y0) / (y1 - y0)
            xg = x0 + t * (x1 - x0)
            crossings.append((t, (xg, ymax), "ymax"))
        for xb in (math.pi, -math.pi):
            if (x1 - xb) * (x0 - xb) < 0.0:
                t = (xb - x0) / (x1 - x0)
                yg = y0 + t * (y1 - y0)
                crossings.append((t, (xb, yg), "strip_boundary"))
        if not crossings:
            return None
        t, p, status = min(crossings, key=lambda c: c[0])
        if status != "bed":
            # Newton onto the level set along the free coordinate: Y on the
            # strip boundary, X on the ymax line.
            axis = 1 if status == "strip_boundary" else 0
            slope = (co.H_X, co.H_Y)[axis]
            q = list(p)
            for _ in range(30):
                r = co.H(q[0], q[1], GUARDED) - H_level
                if abs(r) <= tol:
                    break
                d = slope(q[0], q[1], GUARDED)
                if d == 0.0:
                    break
                q[axis] -= r / d
            p = (q[0], max(q[1], 0.0))
        return p, status

    p = seed
    while len(points) < max_points:
        gx, gy = co.H_X(p[0], p[1], GUARDED), co.H_Y(p[0], p[1], GUARDED)
        norm = math.hypot(gy, gx)
        if norm == 0.0:
            termination = "critical_point"
            break
        tangent = (gy / norm, -gx / norm)
        if tangent[0] * prev_dir[0] + tangent[1] * prev_dir[1] < 0.0:
            tangent = (-tangent[0], -tangent[1])

        accepted = None
        while ds >= ds_min:
            pred = (p[0] + ds * tangent[0], p[1] + ds * tangent[1])
            cand, ok = _correct_onto_level(pred, H_level, co, tol)
            if ok and math.hypot(cand[0] - p[0], cand[1] - p[1]) <= 3.0 * ds:
                accepted = cand
                break
            ds *= 0.5
        if accepted is None:
            raise TraceError("step size underflow while tracing the level set",
                             partial=points,
                             diagnostics={"saddle": saddle.label,
                                          "direction": direction, "ds": ds})

        cross = boundary_cross(p, accepted)
        if cross is not None:
            points.append(cross[0])
            termination = cross[1]
            break

        dist_origin = math.hypot(accepted[0] - saddle.X, accepted[1] - saddle.Y)
        if not origin_active and dist_origin > 5.0 * REAPPROACH_DIST:
            origin_active = True
        hit = None
        for tx, ty, lbl in targets:
            if not origin_active and tx == saddle.X and ty == saddle.Y:
                continue
            if math.hypot(accepted[0] - tx, accepted[1] - ty) < REAPPROACH_DIST:
                hit = lbl
                break
        points.append(accepted)
        if hit is not None:
            termination = "critical_point"
            near_label = hit
            break

        # Curvature-limited step adaptation.
        dx, dy = accepted[0] - p[0], accepted[1] - p[1]
        step_norm = math.hypot(dx, dy)
        if step_norm > 0:
            step_dir = (dx / step_norm, dy / step_norm)
            cos_turn = step_dir[0] * prev_dir[0] + step_dir[1] * prev_dir[1]
            turn = math.acos(min(1.0, max(-1.0, cos_turn)))
            if turn > 1e-12:
                ds = min(ds_max, max(ds_min, ds * min(1.5, 0.05 / turn)))
            else:
                ds = min(ds_max, ds * 1.5)
            prev_dir = step_dir
        p = accepted

    return SeparatrixTrace(saddle=saddle, direction=direction, H_level=H_level,
                           points=points, termination=termination,
                           near_label=near_label)


# ----------------------------------------------------------------------
# Portrait assembly
# ----------------------------------------------------------------------

class IsoclineBranch(NamedTuple):
    """One branch of the X-nullcline, sampled as a polyline."""

    label: str              # "gamma" (single branch) | "Y1" (lower) | "Y2" (upper)
    samples: list           # (X, Y) pairs, ascending X; an (n, 2) array from ``portrait``
    monotonicity: str       # trend of Y over the X >= 0 half


class PhasePortrait(NamedTuple):
    """Isoclines, critical points and separatrices of one period strip."""

    params: WaveParams
    regime: Regime
    coeffs: SteadyCoeffs            # as derived from params (Ak may be < 0)
    coeffs_normalized: SteadyCoeffs # effective coefficients with Ak >= 0
    shifted: bool                   # True when X -> X + pi was applied
    critical_points: list[CriticalPoint]
    isoclines: list[IsoclineBranch]
    separatrices: list[SeparatrixTrace]
    separatrix_groups: list[list[int]]  # indexes into separatrices, mirror pairs
    x_range: tuple[float, float]
    ymax: float
    resolution: int


def _monotonicity(samples) -> str:
    half = [s for s in samples if s[0] >= 0.0]
    if len(half) < 2:
        half = samples
    if len(half) < 2:
        return "increasing"
    return "increasing" if half[-1][1] >= half[0][1] else "decreasing"


def _assemble_isoclines(co: SteadyCoeffs, ymax: float,
                        resolution: int) -> list[IsoclineBranch]:
    y_cap = max(2.0 * ymax, Y_SEARCH_MAX)
    lower, upper = [], []
    for x in linspace(-math.pi, math.pi, resolution):
        roots = isocline_roots(x, co, y_cap)
        if roots and roots[0] <= ymax:
            lower.append((x, roots[0]))
        if len(roots) == 2 and roots[1] <= ymax:
            upper.append((x, roots[1]))
    return [IsoclineBranch(label=label, samples=pts, monotonicity=_monotonicity(pts))
            for label, pts in (("gamma" if co.omega >= 0 else "Y1", lower), ("Y2", upper))
            if pts]


def _group_arms(arms: list[SeparatrixTrace]) -> list[list[int]]:
    """Pair mirror-image arms (same saddle family) into separatrix curves."""
    groups: list[list[int]] = []
    used = [False] * len(arms)
    for i, arm in enumerate(arms):
        if used[i]:
            continue
        used[i] = True
        group = [i]
        xe, ye = arm.points[-1]
        for j in range(i + 1, len(arms)):
            if used[j]:
                continue
            other = arms[j]
            if other.termination != arm.termination:
                continue
            if abs(other.H_level - arm.H_level) > 1e-9 * (1 + abs(arm.H_level)):
                continue
            xo, yo = other.points[-1]
            same_y = abs(yo - ye) <= 1e-6 * (1.0 + abs(ye))
            mirrored_x = abs(xo + xe) <= 1e-6
            if same_y and (mirrored_x or arm.termination == "critical_point"):
                used[j] = True
                group.append(j)
                break
        groups.append(group)
    return groups


def build_phase_portrait(params: WaveParams, ymax: float = Y_SEARCH_MAX,
                         resolution: int = 481) -> PhasePortrait:
    """Assemble the full portrait of one period strip X in [-pi, pi].

    Portraits are always computed with effective Ak >= 0; when the physical
    coefficient is negative the half-period shift is applied and recorded
    (``shifted``), and the regime's crest position restores orientation.
    """
    if not 0.0 < ymax <= YMAX_LIMIT:
        raise DomainError(f"ymax must be positive and at most {YMAX_LIMIT:g} "
                          f"(the isocline search runs to 2*ymax), got {ymax!r}")
    if resolution < 2:
        raise DomainError(f"resolution must be at least 2, got {resolution!r}")
    regime = classify_regime(params)
    co = SteadyCoeffs.from_params(params)
    co_n, shifted = co.normalized()
    critical_points = find_critical_points(co_n, y_cap=max(ymax, Y_SEARCH_MAX))
    isoclines = _assemble_isoclines(co_n, ymax, resolution)

    arms = []
    for cp in critical_points:
        if cp.kind != "saddle":
            continue
        for direction in SEPARATRIX_DIRECTIONS:
            arm = trace_separatrix(cp, co_n, direction, ymax=ymax,
                                   critical_points=critical_points)
            # Arms of a boundary saddle that exit immediately are the mirror
            # images of the inward arms; drop the stubs.
            if len(arm.points) <= 2 and arm.termination == "strip_boundary":
                continue
            arms.append(arm)
    groups = _group_arms(arms)

    return PhasePortrait(params=params, regime=regime, coeffs=co,
                         coeffs_normalized=co_n, shifted=shifted,
                         critical_points=critical_points, isoclines=isoclines,
                         separatrices=arms, separatrix_groups=groups,
                         x_range=(-math.pi, math.pi), ymax=ymax,
                         resolution=resolution)


# ----------------------------------------------------------------------
# Exports: JSON summary, CSV polylines, SVG rendering.  Polylines are read
# as sequences of (X, Y) pairs, so lists and arrays export the same bytes.
# ----------------------------------------------------------------------

#: Fixed rendering styles (see README); single source of truth for the SVG.
SVG_STYLE = {
    "isocline": {"stroke": "#1f77b4", "width": 1.5, "dash": "6 4"},
    "separatrix": {"stroke": "#d62728", "width": 1.8, "dash": None},
    "surface": {"stroke": "#2ca02c", "width": 1.0, "dash": "2 3"},
    "saddle": {"fill": "#000000", "size": 4.0},
    "center": {"fill": "#2ca02c", "size": 4.0},
}


def portrait_summary(portrait: PhasePortrait) -> dict:
    """JSON-serializable summary of a portrait."""
    p = portrait.params
    return {
        "params": {"g": p.g, "h": p.h, "a": p.a, "k": p.k, "omega": p.omega,
                   "s": p.s, "branch": p.branch, "c": p.c, "f": p.f, "A": p.A},
        "regime": {
            "vorticity_sign": portrait.regime.vorticity_sign,
            "crest_shift": portrait.regime.crest_shift,
            "supercritical": portrait.regime.supercritical,
            "branching_positive": portrait.regime.branching_positive,
        },
        "shifted": portrait.shifted,
        "domain": {"x_range": list(portrait.x_range), "ymax": portrait.ymax},
        "n_critical_points": len(portrait.critical_points),
        "critical_points": [
            {"label": cp.label, "X": cp.X, "Y": cp.Y, "kind": cp.kind,
             "hessian_eigs": list(cp.hessian_eigs), "H": cp.H_value}
            for cp in portrait.critical_points
        ],
        "n_separatrices": len(portrait.separatrix_groups),
        "separatrix_arms": [
            {"saddle": arm.saddle.label, "direction": arm.direction,
             "H": arm.H_level, "termination": arm.termination,
             "near": arm.near_label, "n_points": len(arm.points),
             "end": [float(arm.points[-1][0]), float(arm.points[-1][1])]}
            for arm in portrait.separatrices
        ],
        "isoclines": [
            {"label": br.label, "n_samples": len(br.samples),
             "monotonicity": br.monotonicity}
            for br in portrait.isoclines
        ],
    }


def portrait_json(portrait: PhasePortrait) -> str:
    return json.dumps(portrait_summary(portrait), indent=2)


def isocline_csv_rows(portrait: PhasePortrait):
    yield "branch_label,X,Y"
    for br in portrait.isoclines:
        for x, y in br.samples:
            yield f"{br.label},{x:.17g},{y:.17g}"


def separatrix_csv_rows(portrait: PhasePortrait):
    yield "branch_label,X,Y"
    for idx, arm in enumerate(portrait.separatrices):
        label = f"sep{idx}_{arm.saddle.label}_{arm.direction}"
        for x, y in arm.points:
            yield f"{label},{x:.17g},{y:.17g}"


def _svg_path(points, x_map, y_map) -> str:
    cmds = []
    for i, (x, y) in enumerate(points):
        cmds.append(f"{'M' if i == 0 else 'L'}{x_map(x):.3f},{y_map(y):.3f}")
    return " ".join(cmds)


def _split_on_gaps(samples, dx_max: float):
    if len(samples) == 0:
        return
    start = 0
    for i in range(1, len(samples)):
        if samples[i][0] - samples[i - 1][0] > dx_max:
            yield samples[start:i]
            start = i
    yield samples[start:]


def portrait_svg(portrait: PhasePortrait, width: int = 900, height: int = 450) -> str:
    """Render the portrait to a standalone SVG string.

    Fixed viewBox [-pi, pi] x [0, ymax]; isoclines dashed, separatrices
    solid, critical points as markers, styles from ``SVG_STYLE``.  Drawn
    from the same polyline data as the CSV exports.
    """
    margin = 40.0
    xr = portrait.x_range
    def x_map(x):
        return margin + (x - xr[0]) / (xr[1] - xr[0]) * (width - 2 * margin)
    def y_map(y):
        return height - margin - y / portrait.ymax * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    dx_gap = 3.0 * (xr[1] - xr[0]) / max(portrait.resolution - 1, 1)
    style = SVG_STYLE["isocline"]
    for br in portrait.isoclines:
        for piece in _split_on_gaps(br.samples, dx_gap):
            if len(piece) < 2:
                continue
            parts.append(
                f'<path d="{_svg_path(piece, x_map, y_map)}" fill="none" '
                f'stroke="{style["stroke"]}" stroke-width="{style["width"]}" '
                f'stroke-dasharray="{style["dash"]}"/>')
    # Fluid surface in steady coordinates: Y = k*(h + a*cos(X_physical)).
    p = portrait.params
    shift = math.pi if portrait.shifted else 0.0
    surf = [(x, p.k * (p.h + p.a * math.cos(x - shift)))
            for x in linspace(xr[0], xr[1], 241)]
    surf = [pt for pt in surf if pt[1] <= portrait.ymax]
    style = SVG_STYLE["surface"]
    if len(surf) >= 2:
        parts.append(
            f'<path d="{_svg_path(surf, x_map, y_map)}" fill="none" '
            f'stroke="{style["stroke"]}" stroke-width="{style["width"]}" '
            f'stroke-dasharray="{style["dash"]}"/>')
    style = SVG_STYLE["separatrix"]
    for arm in portrait.separatrices:
        # The portrait is mirror symmetric in X; draw each arm and its
        # reflection so boundary-saddle families render completely.
        for pts in (arm.points, [(-x, y) for x, y in arm.points]):
            parts.append(
                f'<path d="{_svg_path(pts, x_map, y_map)}" fill="none" '
                f'stroke="{style["stroke"]}" stroke-width="{style["width"]}"/>')
    for cp in portrait.critical_points:
        style = SVG_STYLE[cp.kind]
        cx, cy, r = x_map(cp.X), y_map(cp.Y), style["size"]
        if cp.kind == "saddle":
            parts.append(
                f'<path d="M{cx - r:.3f},{cy - r:.3f} L{cx + r:.3f},{cy + r:.3f} '
                f'M{cx - r:.3f},{cy + r:.3f} L{cx + r:.3f},{cy - r:.3f}" '
                f'stroke="{style["fill"]}" stroke-width="1.5"/>')
        else:
            parts.append(
                f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.3f}" '
                f'fill="none" stroke="{style["fill"]}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Steady-frame phase portraits on scalars.

H = Ak*cos(X)*sinh(Y) - omega*Y^2/2 - f*Y is linear in cos X, so every
portrait curve is an explicit graph over Y, sampled by arc length with no
step loop: a separatrix, the level of a saddle that holds its stable and
unstable manifolds, is X(Y) = +-arccos G(Y), G = (H(saddle) + omega*Y^2/2
+ f*Y)/(Ak*sinh Y), and the X-nullcline ("infinity isocline") is X(Y) =
+-arccos((omega*Y + f)/(Ak*cosh Y)).  For nonnegative vorticity the strip
holds one critical point, a saddle above the crest; for negative vorticity
past the branching discriminant the nullcline splits in two, and a saddle,
a center and a saddle bound a cat's-eye vortex between two critical layers.
Each arm ends where its graph first meets X = 0 or X = pi, by the walk
``steady.level_end`` that also gives the drift layers, cut at the flow's
census of critical points; the portrait lists those ``steady.listed`` keeps.

Like ``steady``, this module runs on ``math`` without numpy: points are
(X, Y) tuples and polylines are lists of them.  ``portrait`` re-exports
these names and gives the portrait its array face.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .errors import DomainError, NumericsError
from .params import HYPERBOLIC_ARG_MAX, Y_SEARCH_MAX, Regime, WaveParams, classify_regime
from .steady import (ROOT_XTOL, CriticalPoint, SteadyCoeffs, bracketed_root,
                     find_critical_points, level_end, linspace, listed)

#: Largest portrait height, half the hyperbolic guard: the curves divide by
#: Ak*sinh(Y), finite up to here for every admitted coefficient.
YMAX_LIMIT = HYPERBOLIC_ARG_MAX / 2.0

#: Points per graph piece of a portrait curve (``--resolution``).
DEFAULT_RESOLUTION = 481

#: Most points per graph piece: a fig2 portrait at 500,000 takes about 40 s
#: and 1 GB on a 2-vCPU VM, writing 0.4 GB of CSV and SVG.
MAX_RESOLUTION = 500_000

SEPARATRIX_DIRECTIONS = ("unstable+", "unstable-", "stable+", "stable-")

#: The X extent of every portrait: one period strip.
X_RANGE = (-math.pi, math.pi)


def _graph(x_of, p0, p1, n: int, point_of=None) -> list:
    """``n`` points of X = x_of(Y) from ``p0`` to ``p1``, evenly spaced in arc
    length as measured at Chebyshev nodes in Y (which resolve an end where X ~
    sqrt(Y - y0)), each on the curve: ``point_of(Y)``, default (x_of(Y), Y)."""
    (x0, y0), (x1, y1) = p0, p1
    if y0 == y1:
        return [p0]
    ys = [y0 + (y1 - y0) * math.sin(0.5 * math.pi * j / (n - 1)) ** 2
          for j in range(n - 1)] + [y1]
    xs = [x0] + [x_of(y) for y in ys[1:-1]] + [x1]
    arc = [0.0]
    for j in range(1, n):
        arc.append(arc[-1] + math.hypot(xs[j] - xs[j - 1], ys[j] - ys[j - 1]))
    points, j = [p0], 0
    for i in range(1, n - 1):
        target = arc[-1] * i / (n - 1)
        while j < n - 2 and arc[j + 1] < target:
            j += 1
        seg = arc[j + 1] - arc[j]
        y = ys[j] + (ys[j + 1] - ys[j]) * ((target - arc[j]) / seg if seg else 0.0)
        points.append(point_of(y) if point_of else (x_of(y), y))
    return points + [p1]


def _mirrored(points) -> list:
    return [(-x + 0.0, y) for x, y in reversed(points)]   # -0.0 + 0.0 is 0.0


class SeparatrixTrace(NamedTuple):
    """One arm of a saddle's level set."""

    saddle: CriticalPoint
    direction: str          # one of SEPARATRIX_DIRECTIONS
    H_level: float
    points: list            # (X, Y) pairs; an (n, 2) array from ``portrait``
    termination: str        # strip_boundary | bed | ymax | critical_point
    near_label: str = ""    # label of the critical point reached, if any


def _saddle_arm_direction(saddle: CriticalPoint, co: SteadyCoeffs,
                          direction: str) -> tuple[float, float]:
    """Unit tangent of the requested invariant-manifold arm at the saddle,
    an eigenvector of the flow Jacobian [[Hxy, Hyy], [-Hxx, -Hxy]]."""
    Hxx, Hxy, Hyy = co.hessian(saddle.X, saddle.Y, math)
    disc = Hxy * Hxy - Hxx * Hyy
    if disc <= 0:
        raise NumericsError("no real manifold directions: not a saddle",
                            diagnostics={"X": saddle.X, "Y": saddle.Y, "disc": disc})
    lam = math.sqrt(disc) if direction.startswith("unstable") else -math.sqrt(disc)
    v = max((Hyy, lam - Hxy), (-lam - Hxy, Hxx), key=lambda row: math.hypot(*row))
    scale = (-1.0 if direction.endswith("-") else 1.0) / math.hypot(*v)
    return v[0] * scale, v[1] * scale


def _level_graph(saddle: CriticalPoint, co: SteadyCoeffs):
    """``x_of(Y)``, |X| on the level H = H(saddle) where cos X = G = u/s,
    u = H(saddle) + omega*Y^2/2 + f*Y, s = Ak*sinh Y, and ``point_of(Y)``.
    Where c*G > 1/2 (c = cos Xs), |X - Xs| = 2*asin(sqrt(c*D/(2s))) with
    D = H(Xs, Y) - H(Xs, Ys) from ``H_rise``: nothing cancels near the
    saddle.  Where the curve is steep, ``point_of`` takes a Newton step in Y
    onto the level unless it exceeds sqrt(eps) relative (the curve passes
    between floats)."""
    Xs, Ys, H0, c = saddle.X, saddle.Y, saddle.H_value, math.cos(saddle.X)
    Ak, omega, f, max_step = co.Ak, co.omega, co.f, math.sqrt(math.ulp(1.0))

    def x_of(Y):
        s = Ak * math.sinh(Y)
        u = H0 + (0.5 * omega * Y + f) * Y
        if c * u <= 0.5 * s:
            return math.acos(min(1.0, max(-1.0, u / s)))
        w = 0.5 * c * co.H_rise(Xs, Ys, Y - Ys) / s
        dx = 2.0 * math.asin(math.sqrt(min(1.0, max(0.0, w))))
        return dx if c > 0.0 else math.pi - dx

    def point_of(Y):
        X = x_of(Y)
        H_Y = co.H_Y(X, Y, math)
        if H_Y and Ak * math.sinh(Y) * math.sin(X) * math.ulp(X) > abs(H_Y) * math.ulp(Y):
            step = (co.H(X, Y, math) - H0) / H_Y
            if abs(step) <= max_step * (1.0 + Y):
                Y -= step
        return X, Y
    return x_of, point_of


def _trace(saddle: CriticalPoint, co: SteadyCoeffs, direction: str, ymax: float,
           n: int) -> SeparatrixTrace:
    """``trace_separatrix`` with ``n`` points per graph piece."""
    if saddle.kind != "saddle":
        raise DomainError(f"separatrices emanate from saddles, got {saddle.kind!r}")
    if direction not in SEPARATRIX_DIRECTIONS:
        raise DomainError(f"direction must be one of {SEPARATRIX_DIRECTIONS}")
    vx, vy = _saddle_arm_direction(saddle, co, direction)
    Xs, Ys = float(saddle.X), float(saddle.Y)
    arm = SeparatrixTrace(saddle, direction, saddle.H_value, [(Xs, Ys)], "ymax")
    if Xs != 0.0 and vx > 0.0:      # out of the strip: the mirror of an inward arm
        return arm._replace(termination="strip_boundary")
    if Ys >= ymax:
        return arm
    end = level_end(co, Xs, Ys, vy > 0.0)
    Y_end, axis, label = end if end is not None and end[0] <= ymax else (ymax, None, "")
    x_of, point_of = _level_graph(saddle, co)
    if Y_end == 0.0:                # only the level H = 0 reaches the bed
        X_end, termination = math.acos(min(1.0, max(-1.0, co.f / co.Ak))), "bed"
    elif axis is None:
        X_end, termination = x_of(ymax), "ymax"
    else:
        X_end, termination = axis, "critical_point" if label else "strip_boundary"
    side = -1.0 if vx < 0.0 and Xs == 0.0 else 1.0
    points = [(side * x + 0.0, y)
              for x, y in _graph(x_of, (Xs, Ys), (X_end, Y_end), n, point_of)]
    if termination == "strip_boundary" and axis == 0.0:
        points += _mirrored(points[:-1])    # G = +1, G' != 0: X = 0 is crossed
        if Xs == 0.0:
            termination, label = "critical_point", saddle.label
    return arm._replace(points=points, termination=termination, near_label=label)


def trace_separatrix(saddle: CriticalPoint, co: SteadyCoeffs, direction: str,
                     ymax: float = Y_SEARCH_MAX) -> SeparatrixTrace:
    """One arm of the level H = H(saddle), from the saddle along the tangent
    of ``direction``: X(Y) = +-arccos G(Y) up to G = -1 (the strip boundary),
    a critical point met with G' = 0, ymax or the bed.  At G = +1 it crosses
    X = 0 and returns mirrored to the saddle (``critical_point``) or, from
    X = pi, to its image at X = -pi.  Arms leaving the strip are the saddle."""
    return _trace(saddle, co, direction, ymax, DEFAULT_RESOLUTION)


class IsoclineBranch(NamedTuple):
    """One branch of the X-nullcline, sampled as a polyline."""

    label: str              # "gamma" | "Y1" (below the turn of q) | "Y2" (above)
    samples: list           # (X, Y) pairs, ascending X; an (n, 2) array from ``portrait``
    monotonicity: str       # trend of Y over the X >= 0 half


class PhasePortrait(NamedTuple):
    """Isoclines, critical points and separatrices of one period strip."""

    params: WaveParams
    regime: Regime
    coeffs_normalized: SteadyCoeffs # effective coefficients with Ak >= 0
    shifted: bool                   # True when X -> X + pi was applied
    critical_points: list[CriticalPoint]
    isoclines: list[IsoclineBranch]
    separatrices: list[SeparatrixTrace]
    separatrix_groups: list[list[int]]  # indexes into separatrices, mirror pairs
    ymax: float
    resolution: int


def _assemble_isoclines(co: SteadyCoeffs, ymax: float, n: int) -> list[IsoclineBranch]:
    """The X-nullcline cos X = q(Y) = (omega*Y + f)/(Ak*cosh Y), each branch
    as its X <= 0 mirror image, then its X >= 0 half.  q' has the sign of
    omega*cosh Y - (omega*Y + f)*sinh Y, which changes once at most: that
    turn splits a lower branch from an upper one, each ending at critical
    points (q = +-1), the bed, the turn or ymax.  Ak = 0 gives Y = -f/omega."""
    labels = ("gamma" if co.omega >= 0 else "Y1", "Y2")
    Ak, omega, f = co.Ak, co.omega, co.f
    if Ak == 0.0:
        y0 = -f / omega if omega < 0 else 0.0
        line = [(x, y0) for x in linspace(-math.pi, math.pi, n)]
        return [IsoclineBranch(labels[0], line, "increasing")] if 0.0 < y0 <= ymax else []

    def q(y):
        return (omega * y + f) / (Ak * math.cosh(y))

    def x_of(y):
        return math.acos(min(1.0, max(-1.0, q(y))))

    def turn(y):
        return omega * math.cosh(y) - (omega * y + f) * math.sinh(y)

    ends = [0.0, ymax]
    if turn(0.0) * turn(ymax) < 0.0:
        ends.insert(1, bracketed_root(turn, 0.0, ymax, ROOT_XTOL, what="isocline turn"))
    at = {cp.Y: cp.X for cp in find_critical_points(co) if cp.Y <= ymax}
    branches = []
    for lo, hi in zip(ends, ends[1:]):
        cuts = [lo] + sorted(y for y in at if lo < y < hi) + [hi]
        for a, b in zip(cuts, cuts[1:]):
            if abs(q(0.5 * (a + b))) <= 1.0:
                half = _graph(x_of, (at.get(a, x_of(a)), a), (at.get(b, x_of(b)), b), n)
                half = half if half[0][0] <= half[-1][0] else half[::-1]
                trend = "increasing" if half[-1][1] >= half[0][1] else "decreasing"
                samples = _mirrored(half[1:] if half[0][0] == 0.0 else half) + half
                branches.append(IsoclineBranch(labels[len(branches)], samples, trend))
                break
    return branches


def _group_arms(arms: list[SeparatrixTrace]) -> list[list[int]]:
    """Pair each arm with the next arm of its saddle and termination that ends
    at its mirror image (or, at a critical point, at the same point)."""
    groups: list[list[int]] = []
    unpaired: dict = {}
    for i, arm in enumerate(arms):
        x, y = arm.points[-1]
        key = (arm.saddle.label, arm.termination, abs(x), y)
        if key in unpaired:
            unpaired.pop(key).append(i)
        else:
            unpaired[key] = [i]
            groups.append(unpaired[key])
    return groups


def build_phase_portrait(params: WaveParams, ymax: float = Y_SEARCH_MAX,
                         resolution: int = DEFAULT_RESOLUTION) -> PhasePortrait:
    """Assemble the full portrait of one period strip X in [-pi, pi].

    Portraits are always computed with effective Ak >= 0; when the physical
    coefficient is negative the half-period shift is applied and recorded
    (``shifted``), and the regime's crest position restores orientation.
    ``resolution`` is the number of points per graph piece: per separatrix
    arm (2*resolution - 1 if it returns mirrored across X = 0) and per
    mirror half of an isocline branch.
    """
    if not 0.0 < ymax <= YMAX_LIMIT:
        raise DomainError(f"ymax must be positive and at most {YMAX_LIMIT:g}, got {ymax!r}")
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise DomainError(f"resolution must be from 2 to {MAX_RESOLUTION}, got {resolution!r}")
    regime = classify_regime(params)
    co_n, shifted = SteadyCoeffs.from_params(params).normalized()
    critical_points = listed(co_n, ymax)
    arms = [_trace(cp, co_n, direction, ymax, resolution)
            for cp in critical_points if cp.kind == "saddle"
            for direction in SEPARATRIX_DIRECTIONS]
    # The outward arms of a saddle on X = pi are the saddle alone; drop them.
    arms = [arm for arm in arms if len(arm.points) > 1 or arm.termination != "strip_boundary"]
    isoclines = _assemble_isoclines(co_n, ymax, resolution)
    return PhasePortrait(params, regime, co_n, shifted, critical_points, isoclines,
                         arms, _group_arms(arms), ymax, resolution)


# ----------------------------------------------------------------------
# Exports: JSON summary, CSV polylines, SVG rendering.  Polylines are read
# as sequences of (X, Y) pairs, so lists and arrays export the same bytes.
# ----------------------------------------------------------------------

#: The SVG canvas in pixels and the margin around its plot box.
SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 900, 450, 40.0

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
                   "s": 0.0, "branch": p.branch, "c": p.c, "f": p.f, "A": p.A},
        "regime": portrait.regime._asdict(),
        "shifted": portrait.shifted,
        "domain": {"x_range": list(X_RANGE), "ymax": portrait.ymax},
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
    return "M" + " L".join(["%.3f,%.3f" % (x_map(x), y_map(y)) for x, y in points])


def _split_at_gap(samples, dx_max: float):
    """An isocline branch as its X < 0 and X > 0 halves where they do not
    meet on X = 0 (a jump across it wider than ``dx_max``), else whole."""
    for i in range(1, len(samples)):
        x0, x1 = samples[i - 1][0], samples[i][0]
        if x0 < 0.0 < x1 and x1 - x0 > dx_max:
            return [samples[:i], samples[i:]]
    return [samples]


def portrait_svg(portrait: PhasePortrait) -> str:
    """Render the portrait to a standalone SVG string.

    SVG_WIDTH x SVG_HEIGHT pixels for [-pi, pi] x [0, ymax]; isoclines dashed,
    separatrices solid, critical points as markers, styles from
    ``SVG_STYLE``.  Drawn from the same polyline data as the CSV exports.
    """
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    xr = X_RANGE
    x0, x_span, ymax = xr[0], xr[1] - xr[0], portrait.ymax
    w, h, y_top = width - 2 * margin, height - 2 * margin, height - margin
    def x_map(x):
        return margin + (x - x0) / x_span * w
    def y_map(y):
        return y_top - y / ymax * h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{margin}" y="{margin}" width="{w}" '
        f'height="{h}" fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    def path(points, style):
        dash = f' stroke-dasharray="{style["dash"]}"' if style["dash"] else ""
        return (f'<path d="{_svg_path(points, x_map, y_map)}" fill="none" '
                f'stroke="{style["stroke"]}" stroke-width="{style["width"]}"{dash}/>')

    dx_gap = 3.0 * (xr[1] - xr[0]) / max(portrait.resolution - 1, 1)
    parts += [path(piece, SVG_STYLE["isocline"]) for br in portrait.isoclines
              for piece in _split_at_gap(br.samples, dx_gap) if len(piece) >= 2]
    # Fluid surface in steady coordinates: Y = k*(h + a*cos(X_physical)).
    p = portrait.params
    shift = math.pi if portrait.shifted else 0.0
    surf = [(x, p.k * (p.h + p.a * math.cos(x - shift)))
            for x in linspace(xr[0], xr[1], 241)]
    surf = [pt for pt in surf if pt[1] <= portrait.ymax]
    if len(surf) >= 2:
        parts.append(path(surf, SVG_STYLE["surface"]))
    for arm in portrait.separatrices:
        # The portrait is mirror symmetric in X.  A saddle on X = 0 keeps
        # all four arms; one on X = pi keeps its two inward arms, so draw
        # the reflection of those that do not cross to X < 0.
        parts.append(path(arm.points, SVG_STYLE["separatrix"]))
        if arm.saddle.X != 0.0 and arm.points[-1][0] >= 0.0:
            parts.append(path([(-x, y) for x, y in arm.points], SVG_STYLE["separatrix"]))
    for cp in portrait.critical_points:
        style = SVG_STYLE[cp.kind]
        cx, cy, r = x_map(cp.X), y_map(cp.Y), style["size"]
        parts.append(
            f'<path d="M{cx - r:.3f},{cy - r:.3f} L{cx + r:.3f},{cy + r:.3f} '
            f'M{cx - r:.3f},{cy + r:.3f} L{cx + r:.3f},{cy - r:.3f}" '
            f'stroke="{style["fill"]}" stroke-width="1.5"/>' if cp.kind == "saddle" else
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.3f}" '
            f'fill="none" stroke="{style["fill"]}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

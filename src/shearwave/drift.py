"""Transit times, per-period drift and closed physical orbits, on scalars.

Steady-frame orbits are level curves of the Hamiltonian; the physical
particle path is recovered through x = (X + f*t)/k, y = Y/k.  Whether a
particle drifts with or against the wave is decided by the transit time
tau of its steady orbit across one period: over a transit the physical
displacement is (f*tau - 2*pi)/k, so tau > 2*pi/f means forward drift.

Orbit families and how each is handled:

* bed / interior-wave orbits traverse X from pi to -pi: tau comes from
  tanh-sinh quadrature of dt = dX / (-dX/dt) along the H-level curve,
  with an error estimate;
* vortex orbits (negative-vorticity cat's-eye) are closed in the steady
  frame: the loop period is found by integrating half a loop between the
  two crossings of the X = pi section, and the particle advances f*T/k
  per loop;
* surface-layer orbits between the two isocline branches move with
  dX/dt > 0, so the physical velocity (dX/dt + f)/k is positive
  throughout: constant forward motion;
* unbounded orbits hug a vertical asymptote, so X stays bounded and the
  mean physical velocity is f/k.

Trajectories for export are integrated here too, by DOP853 or the
implicit midpoint rule, as lists; ``paths`` wraps them into arrays.  Like
``steady``, this module runs on ``math`` without numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from functools import cache
from typing import NamedTuple

from .dop853 import INTERRUPTED, TOO_MANY_STEPS, contd8, dop853
from .errors import DomainError, NumericsError, UnsupportedConfig
from .params import WaveParams
from .steady import (GUARDED, CriticalPoint, SteadyCoeffs, bracketed_root,
                     find_critical_points, isocline_roots, linspace)

#: Hard ceiling for |Y| during integration; beyond it cosh overflows.
Y_GUARD = 700.0

#: |Y| above which a step-size collapse is read as an escape to infinity
#: (the hyperbolic blow-up outruns the representable time resolution long
#: before |Y| reaches the overflow guard).
Y_ESCAPE_MIN = 30.0

#: Step budget of one integration: DOP853 stops after this many steps,
#: accepted or rejected, and the midpoint rule refuses a run that needs
#: more.  That is 1,000 times the 2,000 steps of a default midpoint run.
MAX_STEPS = 2_000_000

#: Columns of the drift CSV.
DRIFT_HEADER = "Y0,y0_m,tau,drift_m,direction,layer"

#: Columns of the trajectory CSV.
TRAJECTORY_HEADER = "t,X,Y,x,y,H"

LAYERS = ("bed_adjacent", "internal_wave", "vortex", "surface_wave", "unbounded")


def _scalar_rhs(co):
    # A stage probe may overshoot into cosh overflow; inf rejects the step.
    def rhs(X, Y):
        try:
            return co.H_Y(X, Y, math), -co.H_X(X, Y, math)
        except (OverflowError, ValueError):
            return math.inf, math.inf
    return rhs


def accepted_steps(X0: float, Y0: float, co: SteadyCoeffs, t_end: float,
                   rtol: float, atol: float):
    """DOP853 from (X0, Y0) over [0, t_end]: lists of the accepted (t, X, Y),
    initial point first, and whether the orbit escaped above Y_GUARD.
    NumericsError when the run takes more than MAX_STEPS steps."""
    ts, Xs, Ys = [], [], []

    def solout(t_old, t, z, cont):
        ts.append(t)
        Xs.append(z[0])
        Ys.append(z[1])
        return abs(z[1]) > Y_GUARD

    idid = dop853(_scalar_rhs(co), 0.0, (float(X0), float(Y0)), t_end,
                  rtol, atol, solout, nmax=MAX_STEPS)
    escaped = idid == INTERRUPTED
    if idid == TOO_MANY_STEPS:
        raise NumericsError(f"integration stopped at the step budget of {MAX_STEPS} steps",
                            diagnostics={"t_reached": ts[-1], "t_end": t_end, "idid": idid})
    if idid < 0:
        if max(abs(y) for y in Ys) > Y_ESCAPE_MIN:
            escaped = True
        else:
            raise NumericsError("integration step failure",
                                diagnostics={"t_reached": ts[-1],
                                             "t_end": t_end, "idid": idid})
    return ts, Xs, Ys, escaped


def physical_coords(t, X, Y, co: SteadyCoeffs, shifted: bool):
    """Physical (x, y) of steady states: inverts X = k*x - f*t, Y = k*y."""
    shift = math.pi if shifted else 0.0
    return (X - shift + co.f * t) / co.k, Y / co.k


# ----------------------------------------------------------------------
# Trajectories
# ----------------------------------------------------------------------

class Trajectory(NamedTuple):
    """Time-stamped steady and physical states with a Hamiltonian audit.

    The six columns are equal-length sequences: lists from
    ``steady_trajectory``, numpy arrays from ``paths.integrate_steady``.
    """

    t: Sequence[float]
    X: Sequence[float]
    Y: Sequence[float]
    x: Sequence[float]
    y: Sequence[float]
    H: Sequence[float]
    co: SteadyCoeffs
    shifted: bool = False
    layer: str | None = None
    truncated: bool = False
    method: str = "adaptive"

    @property
    def h_drift(self) -> float:
        """max |H(t) - H(0)|, the integrator-quality audit."""
        H0 = self.H[0]
        return float(max(abs(h - H0) for h in self.H))

    @property
    def h_drift_scaled(self) -> float:
        return self.h_drift / (1.0 + abs(float(self.H[0])))


def check_trajectory_start(X0: float, Y0: float, t_end: float,
                           **steps: float) -> None:
    """DomainError unless the start point is finite with Y0 >= 0, the end
    time positive and finite, and each named tolerance or step size
    positive and finite."""
    if not (math.isfinite(X0) and math.isfinite(Y0)):
        raise DomainError(f"the start point must be finite, got ({X0!r}, {Y0!r})")
    if Y0 < 0:
        raise DomainError("Y0 must be nonnegative")
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    for name, value in steps.items():
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


def steady_trajectory(X0: float, Y0: float, co: SteadyCoeffs, t_end: float,
                      rtol: float = 1e-10, atol: float = 1e-12,
                      shifted: bool = False) -> Trajectory:
    """DOP853 trajectory from (X0, Y0) over [0, t_end] at every accepted
    step, as lists, with H on the guarded math kernel; truncated when the
    orbit escapes (see accepted_steps)."""
    check_trajectory_start(X0, Y0, t_end, rtol=rtol, atol=atol)
    ts, Xs, Ys, escaped = accepted_steps(X0, Y0, co, t_end, rtol, atol)
    return _trajectory(ts, Xs, Ys, co, shifted, escaped, "adaptive")


def _trajectory(ts, Xs, Ys, co, shifted, truncated, method) -> Trajectory:
    xs, ys = [], []
    for t, X, Y in zip(ts, Xs, Ys):
        x, y = physical_coords(t, X, Y, co, shifted)
        xs.append(x)
        ys.append(y)
    H = [co.H(X, Y, GUARDED) for X, Y in zip(Xs, Ys)]
    return Trajectory(t=ts, X=Xs, Y=Ys, x=xs, y=ys, H=H, co=co, shifted=shifted,
                      truncated=truncated, method=method)


def _newton_correction(co: SteadyCoeffs, X: float, Y: float, dt: float,
                       gX: float, gY: float) -> tuple[float, float]:
    """Solution d of (I - dt/2*J) d = (gX, gY) by Cramer's rule, J the flow
    Jacobian [[Hxy, Hyy], [-Hxx, -Hxy]] at (X, Y)."""
    Hxx, Hxy, Hyy = co.hessian(X, Y, math)
    h = 0.5 * dt
    a, b, c, d = 1.0 - h * Hxy, -h * Hyy, h * Hxx, 1.0 + h * Hxy
    det = a * d - b * c
    return (d * gX - b * gY) / det, (a * gY - c * gX) / det


def midpoint_trajectory(X0: float, Y0: float, co: SteadyCoeffs, t_end: float,
                        dt: float, shifted: bool = False) -> Trajectory:
    """Fixed-step implicit midpoint rule (symplectic) from (X0, Y0) over
    [0, t_end], as lists, with H on the guarded math kernel.

    The run takes n = max(1, round(t_end/dt)) steps of t_end/n; a t_end/dt
    above MAX_STEPS is refused with a DomainError.  Each step
    solves z1 = z0 + dt*F((z0 + z1)/2) by Newton from the explicit midpoint
    estimate, at most 8 corrections, until max|G| < 1e-14*(1 + max|z0|).
    A step whose iterate is not finite or leaves |Y| <= Y_GUARD ends the
    run, truncated, at the last completed step.
    """
    check_trajectory_start(X0, Y0, t_end, dt=dt)
    if t_end / dt > MAX_STEPS:
        raise DomainError(f"t_end/dt = {t_end / dt:.6g} exceeds the step budget "
                          f"of {MAX_STEPS} steps")
    n = max(1, round(t_end / dt))
    dt = t_end / n
    h = 0.5 * dt
    rhs = _scalar_rhs(co)
    X, Y = float(X0), float(Y0)
    Xs, Ys = [X], [Y]
    for _ in range(n):
        fX, fY = rhs(X, Y)
        fX, fY = rhs(X + h * fX, Y + h * fY)
        X1, Y1 = X + dt * fX, Y + dt * fY
        tol = 1e-14 * (1.0 + max(abs(X), abs(Y)))
        for _ in range(8):
            if not (math.isfinite(X1) and abs(Y1) <= Y_GUARD):
                break
            mX, mY = 0.5 * (X + X1), 0.5 * (Y + Y1)
            fX, fY = rhs(mX, mY)
            gX, gY = X1 - X - dt * fX, Y1 - Y - dt * fY
            if abs(gX) < tol and abs(gY) < tol:
                break
            dX, dY = _newton_correction(co, mX, mY, dt, gX, gY)
            X1, Y1 = X1 - dX, Y1 - dY
        if not (math.isfinite(X1) and abs(Y1) <= Y_GUARD):
            break
        X, Y = X1, Y1
        Xs.append(X)
        Ys.append(Y)
    ts = linspace(0.0, t_end, n + 1)[:len(Xs)]
    return _trajectory(ts, Xs, Ys, co, shifted, len(Xs) <= n, "midpoint")


# ----------------------------------------------------------------------
# Layer classification
# ----------------------------------------------------------------------

def _h_at_pi(Y, co):
    return co.H(math.pi, Y, GUARDED)


def _piece_bracket(fn, roots: list[float], piece: int):
    """Bracket [lo, hi] of monotone piece ``piece`` of a column, or None.

    ``fn`` is H(X, .) minus a level and ``roots`` are the isocline roots at
    X, which split the column into monotone pieces: piece i runs from
    roots[i - 1] (the bed for i = 0) to roots[i].  With dX/dt < 0 at the
    bed, even pieces fall and odd pieces rise.  The open top piece is grown
    by doubling from one unit above its floor while the crossing lies above.
    None when the piece does not exist or its growth passes Y_GUARD.
    """
    if piece > len(roots):
        return None
    lo = roots[piece - 1] if piece else 0.0
    if piece < len(roots):
        return lo, roots[piece]
    sign, hi = (-1.0 if piece % 2 else 1.0), lo + 1.0
    while sign * fn(hi) > 0:
        hi *= 2.0
        if hi > Y_GUARD:
            return None
    return lo, hi


def layer_boundaries(co_n: SteadyCoeffs,
                     cps: list[CriticalPoint] | None = None) -> dict:
    """Heights on the X = pi section separating the orbit families.

    For the three-point regime, returns the saddle/center heights plus the
    two crossings of the vortex-bounding level H = H(P0) on that section;
    critical points count up to Y_GUARD.  Only the topologies of the paper's
    figures are classified: a set whose bounding point at X = 0 is missing
    or is a center raises NumericsError.
    """
    if cps is None:
        cps = find_critical_points(co_n, y_cap=Y_GUARD)
    out = {"critical_points": cps}
    at_zero = [cp for cp in cps if cp.X == 0.0]
    at_pi = sorted((cp for cp in cps if cp.X != 0.0), key=lambda cp: cp.Y)
    if not at_zero and len(at_pi) != 2:
        return out  # no bounding level: every height transits
    if not at_zero or at_zero[0].kind != "saddle":
        topology = ", ".join(f"{cp.kind} at ({cp.X:.4g}, {cp.Y:.4g})" for cp in cps)
        raise NumericsError(
            f"unclassified critical-point topology [{topology}]: the layers "
            "need a saddle as the lowest critical point at X = 0",
            diagnostics={"critical_points": [(cp.label, cp.kind, cp.X, cp.Y)
                                             for cp in cps]})
    H0 = out["H0"] = at_zero[0].H_value
    out["Y_P0"] = at_zero[0].Y
    # The critical points on the section split it into monotone pieces.
    roots = [cp.Y for cp in at_pi]
    fn = lambda Y: _h_at_pi(Y, co_n) - H0

    def level_root(piece):
        bracket = _piece_bracket(fn, roots, piece)
        if bracket is None:
            raise NumericsError("failed to bracket the bounding level")
        return bracketed_root(fn, *bracket, 1e-15, what="bounding level on X = pi")

    out["Y_lower"] = level_root(0)
    if len(roots) == 2:
        out["Y_P1"], out["Y_P2"] = roots
        out["Y_upper"] = level_root(1)
    return out


def section_height(X0: float, Y0: float, co_n: SteadyCoeffs) -> float | None:
    """Height at which the orbit through (X0, Y0) crosses the X = pi section.

    The orbit is the H-level curve through the point; which monotone piece
    of H(pi, .) it crosses is decided by the point's position relative to
    the isocline branches at X0 (below the lower branch, between branches,
    or above the upper one).  Returns None for orbits that never reach the
    section (e.g. the unbounded family hugging a vertical asymptote).
    """
    if Y0 < 0:
        raise DomainError("Y0 must be nonnegative")
    if Y0 == 0.0 or co_n.Ak == 0.0:
        return Y0
    H0 = co_n.H(X0, Y0, GUARDED)
    region = sum(1 for r in isocline_roots(float(X0), co_n, Y_GUARD) if r < Y0)
    crits = isocline_roots(math.pi, co_n, Y_GUARD)
    if region and len(crits) < 2:
        return None  # no rising piece on the section: asymptote-bound orbit
    fn = lambda y: _h_at_pi(y, co_n) - H0
    bracket = _piece_bracket(fn, crits, region)
    if bracket is None or fn(bracket[0]) * fn(bracket[1]) > 0:
        return None
    return bracketed_root(fn, *bracket, 1e-15, maxiter=300,
                          what="section height on X = pi")


def classify_layer(Y0: float, co_n: SteadyCoeffs,
                   boundaries: dict | None = None) -> str:
    """Orbit family of the trajectory through (pi, Y0), by H-level comparison."""
    if Y0 < 0:
        raise DomainError("Y0 must be nonnegative")
    if Y0 == 0.0:
        return "bed_adjacent"
    if boundaries is None:
        boundaries = layer_boundaries(co_n)
    if "Y_P1" in boundaries:
        H0 = boundaries["H0"]
        if _h_at_pi(Y0, co_n) < H0 and Y0 < boundaries["Y_P2"]:
            return "vortex"
        if Y0 < boundaries["Y_P1"]:
            return "internal_wave"
        if Y0 <= boundaries["Y_P2"]:
            return "surface_wave"
        return "unbounded"
    if "Y_lower" in boundaries:
        return "internal_wave" if Y0 < boundaries["Y_lower"] else "unbounded"
    # No bounding level (wave-free or degenerate flow): every height transits.
    return "internal_wave"


# ----------------------------------------------------------------------
# Transit time
# ----------------------------------------------------------------------

#: Tanh-sinh quadrature of the transit time over X in [0, pi]: nodes at
#: t = j*h for |t| <= TS_T_MAX, where the weights fall below 1e-20; h is
#: halved from TS_H0 until two estimates agree to TS_RTOL, at most
#: TS_MAX_HALVINGS times.
TS_T_MAX = 3.5
TS_H0 = 0.5
TS_RTOL = 1e-13
TS_MAX_HALVINGS = 7


@cache
def _tanh_sinh_nodes(halving: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes X in [0, pi] and weights dX/dt of X = (pi/2)(1 + tanh((pi/2) sinh t))
    at the t = j*TS_H0/2**halving new at that halving, t > 0 mirrored to -t."""
    h = TS_H0 / 2 ** halving
    nodes, weights = [], []
    for j in range(1 if halving else 0, int(TS_T_MAX / h) + 1, 2 if halving else 1):
        t = j * h
        e = math.exp(-math.pi * math.sinh(t))  # exp(-2u), u = (pi/2) sinh t
        d = math.pi * e / (1.0 + e)             # distance of the node from 0 or pi
        w = math.pi ** 2 * math.cosh(t) * e / (1.0 + e) ** 2
        nodes += [d, math.pi - d] if t > 0.0 else [math.pi - d]
        weights += [w, w] if t > 0.0 else [w]
    return tuple(nodes), tuple(weights)


def _level_height(X: float, Y0: float, H0: float, co: SteadyCoeffs,
                  piece: int) -> float:
    """Y on the level H(X, Y) = H0, on monotone piece ``piece`` of H(X, .):
    Newton from Y0, else the piece bracket and one Brent call."""
    y = Y0
    try:
        for _ in range(30):
            step = (co.H(X, y, math) - H0) / co.H_Y(X, y, math)
            y -= step
            if not abs(step) > 1e-15 * (1.0 + abs(y)):
                break
        # Falling pieces have dX/dt < 0, rising ones dX/dt > 0: Newton may
        # converge on the level's crossing of a neighbouring piece.
        if (y >= 0.0 and abs(co.H(X, y, math) - H0) <= 1e-14 * (1.0 + abs(H0))
                and (co.H_Y(X, y, math) > 0.0) == bool(piece)):
            return y
    except (OverflowError, ZeroDivisionError):
        pass
    fn = lambda yy: co.H(X, yy, math) - H0
    bracket = _piece_bracket(fn, isocline_roots(X, co, Y_GUARD), piece)
    if bracket is None:
        raise NumericsError("level has no bracket on its monotone piece",
                            diagnostics={"X": X, "H0": H0, "piece": piece})
    lo, hi = bracket
    y = bracketed_root(fn, lo, hi, 1e-15, maxiter=300,
                       what=f"level H = {H0:.6g} at X = {X:.6g}")
    for _ in range(3):
        d = co.H_Y(X, y, math)
        if d == 0.0:
            break
        y = min(max(y - fn(y) / d, lo), hi)
    return y


def _tau_quadrature(Y0: float, co_n: SteadyCoeffs,
                    layer: str) -> tuple[float, bool, float] | None:
    """Transit time over one X-period along the orbit through (pi, Y0) in
    family ``layer``, whether the transit runs rightward, and an error
    estimate of the time.

    None where the orbit does not transit: a vortex loop, the asymptote-bound
    family, a shear level at rest in the steady frame, or a bed with
    stagnation points (Ak >= f), which is a chain of saddle connections.
    """
    if co_n.Ak == 0.0:
        # Pure shear: uniform steady X-speed -(f + omega*Y0).
        speed_left = co_n.f + co_n.omega * Y0
        if speed_left == 0.0:
            return None
        return 2.0 * math.pi / abs(speed_left), speed_left < 0.0, 0.0
    if layer in ("vortex", "unbounded") or (Y0 == 0.0 and co_n.Ak >= co_n.f):
        return None
    rightward = layer == "surface_wave"
    sign, piece = (1.0 if rightward else -1.0), int(rightward)
    H0 = _h_at_pi(Y0, co_n)

    def weighted_sum(halving):
        return math.fsum(
            w * (sign / co_n.H_Y(X, _level_height(X, Y0, H0, co_n, piece), math))
            for X, w in zip(*_tanh_sinh_nodes(halving)))

    # The orbit is mirror-symmetric in X, so integrate a half period.  The
    # integrand peaks where the level passes a saddle, at X = 0 or pi,
    # where tanh-sinh clusters its nodes.
    h = TS_H0
    estimate = h * weighted_sum(0)
    for halving in range(1, TS_MAX_HALVINGS + 1):
        h /= 2.0
        previous = estimate
        estimate = 0.5 * previous + h * weighted_sum(halving)
        if abs(estimate - previous) <= TS_RTOL * abs(estimate):
            break
    return 2.0 * estimate, rightward, 2.0 * abs(estimate - previous)


def transit_time_tau(level_or_traj, co: SteadyCoeffs,
                     boundaries: dict | None = None) -> float | None:
    """Time for a steady orbit to cross one X-period.

    The orbit is given either by its height Y0 on the X = pi section or by
    anything with ``X`` and ``Y`` sequences, such as a trajectory, whose
    start point's section height is recovered from its H-level.  Returns
    None for orbits that do not transit (the vortex and the asymptote-bound
    family, a shear level at rest in the steady frame, and a bed with
    stagnation points).
    """
    co_n, _ = co.normalized()
    if hasattr(level_or_traj, "X"):
        Y0 = section_height(float(level_or_traj.X[0]),
                            float(level_or_traj.Y[0]), co_n)
        if Y0 is None:
            return None
    else:
        Y0 = float(level_or_traj)
    transit = _tau_quadrature(Y0, co_n, classify_layer(Y0, co_n, boundaries))
    return None if transit is None else transit[0]


def _loop_period_and_min_xdot(Y0: float, co_n: SteadyCoeffs,
                              rtol: float = 1e-12, atol: float = 1e-14):
    """Steady-orbit period of a closed vortex loop through (pi, Y0).

    Integrates half a loop between the two crossings of the X = pi section
    (the loop is time-symmetric about that section) and doubles it: each
    accepted step is tested for a sign change of X - pi, and the crossing
    is the Brent root of that step's 7th-order dense output.  Also returns
    the minimum of dX/dt at 512 samples of the half loop's dense output.
    """
    xd0 = co_n.H_Y(math.pi, Y0, math)
    scale = co_n.Ak * math.cosh(Y0) + abs(co_n.omega) * Y0 + co_n.f
    if abs(xd0) <= 1e-13 * scale:
        return None, 0.0  # at the center to rounding: no loop to time
    # The loop crosses X = pi moving left at the bottom and right at the top,
    # so the return crossing has X - pi rising (sign +1) or falling (-1).
    sign = 1.0 if xd0 < 0.0 else -1.0
    conts = []
    crossing = []

    def solout(t_old, t, z, cont):
        if cont is None:
            return False
        conts.append(cont)
        if not (cont[2][0][0] - math.pi) * sign <= 0.0 <= (z[0] - math.pi) * sign:
            return False
        fn = lambda s: (contd8(cont, s)[0] - math.pi) * sign
        # Rounding may leave the dense output just short of X = pi at t.
        crossing.append(t if fn(t) < 0.0 else bracketed_root(
            fn, t_old, t, 4.0 * math.ulp(1.0), what="return to X = pi"))
        return True

    t_max = 1000.0 * 2.0 * math.pi / co_n.f
    idid = dop853(_scalar_rhs(co_n), 0.0, (math.pi, float(Y0)), t_max,
                  rtol, atol, solout, dense=True, nmax=MAX_STEPS)
    if not crossing:
        raise NumericsError("vortex orbit failed to return to the section",
                            diagnostics={"Y0": Y0, "t_max": t_max, "idid": idid})
    t_half = crossing[0]
    starts = [cont[0] for cont in conts]
    xdots = [co_n.H_Y(*contd8(conts[max(bisect_right(starts, t) - 1, 0)], t), math)
             for t in linspace(0.0, t_half, 512)]
    return 2.0 * t_half, min(xdots)


# ----------------------------------------------------------------------
# Drift
# ----------------------------------------------------------------------

class DriftReport(NamedTuple):
    """Per-period drift of the particle on one steady orbit."""

    Y0: float
    tau: float              # steady-orbit period (transit or loop); nan at a center
    drift_m: float          # physical displacement over tau; nan at a center
    direction: str          # forward | backward | closed | always_forward
    layer: str
    mean_speed: float       # drift_m / tau, or f/k where X stays bounded
    #: Quadrature-only error estimate of a transit tau.  Just below a
    #: separatrix the rounding of the level height dominates: the true error
    #: can be 3.5-11 times larger (README, "Numerical notes").
    tau_err: float = math.nan


def _trichotomy(tau: float, f: float) -> str:
    period = 2.0 * math.pi / f
    if abs(tau - period) <= 1e-12 * period:
        return "closed"
    return "forward" if tau > period else "backward"


def drift_per_period(Y0: float, co: SteadyCoeffs,
                     boundaries: dict | None = None) -> DriftReport:
    """Drift classification of the orbit through (pi, Y0).

    Leftward transits displace the particle by (f*tau - 2*pi)/k per
    period; the sign of tau - 2*pi/f decides forward/backward/closed.
    Rightward transits have positive physical velocity throughout and are
    reported always_forward.  Vortex loops advance f*T/k per loop (always
    forward; the center moves in a straight line at speed f/k).
    """
    if Y0 < 0:
        raise DomainError("Y0 must be nonnegative")
    co_n, _ = co.normalized()
    if boundaries is None:
        boundaries = layer_boundaries(co_n)
    layer = classify_layer(Y0, co_n, boundaries)
    f, k = co_n.f, co_n.k
    transit = _tau_quadrature(Y0, co_n, layer)
    if transit is not None:
        tau, rightward, tau_err = transit
        if rightward:
            drift, direction = (f * tau + 2.0 * math.pi) / k, "always_forward"
        else:
            drift, direction = (f * tau - 2.0 * math.pi) / k, _trichotomy(tau, f)
        return DriftReport(Y0=Y0, tau=tau, drift_m=drift, direction=direction,
                           layer=layer, mean_speed=drift / tau, tau_err=tau_err)
    if layer != "vortex":
        # X confined to an asymptote band or between stagnation points on
        # the bed, where the mean speed is f/k, or a shear level at rest in
        # the steady frame, where the speed is f/k throughout.
        return DriftReport(Y0=Y0, tau=math.nan, drift_m=math.nan,
                           direction="forward" if layer in ("unbounded", "bed_adjacent")
                           else "always_forward", layer=layer, mean_speed=f / k)

    # Vortex: closed steady orbit.
    T, min_xdot = _loop_period_and_min_xdot(Y0, co_n)
    if T is None:
        # The center itself: straight-line forward motion at speed f/k,
        # measured from an actual integration rather than asserted.
        ts, Xs, Ys, _ = accepted_steps(math.pi, Y0, co_n, 10.0 * (2.0 * math.pi / f),
                                       1e-12, 1e-14)
        x_start = physical_coords(ts[0], Xs[0], Ys[0], co_n, False)[0]
        x_end = physical_coords(ts[-1], Xs[-1], Ys[-1], co_n, False)[0]
        return DriftReport(Y0=Y0, tau=math.nan, drift_m=math.nan,
                           direction="always_forward", layer=layer,
                           mean_speed=(x_end - x_start) / (ts[-1] - ts[0]))
    drift = f * T / k
    direction = "always_forward" if min_xdot > -f else "forward"
    return DriftReport(Y0=Y0, tau=T, drift_m=drift, direction=direction,
                       layer=layer, mean_speed=f / k)


def fluid_top_level(params: WaveParams, shifted: bool) -> float:
    """Steady height of the free surface over the X = pi sampling column."""
    x_phys = 0.0 if shifted else math.pi
    return params.k * (params.h + params.a * math.cos(x_phys))


def drift_profile(params: WaveParams, levels=None, n: int = 64) -> list[DriftReport]:
    """Drift reports over a set of starting heights on the X = pi column.

    Default levels: the bed plus ``n - 1`` geometrically spaced heights up
    to just below the free surface (geometric spacing resolves thin
    near-bed layers; numpy's ``geomspace`` to one ulp).  Heights are
    steady-frame (Y = k*y) and invariant under the normalization shift.
    """
    if params.c <= 0:
        raise UnsupportedConfig("drift analysis assumes a right-going wave (c > 0)")
    co = SteadyCoeffs.from_params(params)
    co_n, shifted = co.normalized()
    if levels is None:
        if n < 1:
            raise DomainError(f"the number of drift levels must be at least 1, got {n}")
        top = 0.999 * fluid_top_level(params, shifted)
        if not top > 0.0:
            raise DomainError("the surface reaches the bed over X = pi: no drift levels")
        logs = linspace(math.log10(1e-5 * top), math.log10(top), n - 1)
        levels = ([0.0, 1e-5 * top] + [10.0 ** y for y in logs[1:-1]] + [top])[:n]
    boundaries = layer_boundaries(co_n)
    return [drift_per_period(float(Y0), co_n, boundaries=boundaries)
            for Y0 in levels]


class ClosedOrbit(NamedTuple):
    """A verified closed physical particle orbit."""

    Y_level: float
    tau: float
    drift_residual: float   # |drift| at the returned level, from quadrature
    x_close_err: float      # |x(T) - x(0)| from direct integration
    y_close_err: float      # |y(T) - y(0)| from direct integration
    wavelength: float
    depth: float

    @property
    def verified(self) -> bool:
        return (self.x_close_err < 1e-10 * self.wavelength
                and self.y_close_err < 1e-10 * self.depth)


def find_closed_orbit(params: WaveParams, Y_bracket=None) -> ClosedOrbit | None:
    """Locate a height whose particle orbit closes in the physical frame.

    Root-finds the per-period drift over ``Y_bracket`` (default: bed to
    just below the free surface) with Brent's method to 1e-15 in Y.
    Returns None when the drift does not change sign across the bracket,
    in which case no closed orbit is detectable there.  A found level is
    verified by integrating one full period and measuring the closure
    error directly (``verified``: 1e-10 of the wavelength and the depth).
    """
    co = SteadyCoeffs.from_params(params)
    co_n, shifted = co.normalized()
    boundaries = layer_boundaries(co_n)
    if Y_bracket is None:
        Y_bracket = (0.0, 0.98 * fluid_top_level(params, shifted))
    lo, hi = float(Y_bracket[0]), float(Y_bracket[1])

    def drift(Y0):
        return drift_per_period(Y0, co_n, boundaries=boundaries).drift_m

    d_lo, d_hi = drift(lo), drift(hi)
    if not (math.isfinite(d_lo) and math.isfinite(d_hi)) or d_lo * d_hi > 0:
        return None
    Y_star = bracketed_root(drift, lo, hi, 1e-15, maxiter=300,
                            what="closed-orbit level")
    residual = abs(drift(Y_star))
    tau = transit_time_tau(Y_star, co_n, boundaries=boundaries)
    if tau is None:
        raise NumericsError("closed-orbit candidate does not transit",
                            diagnostics={"Y": Y_star})
    ts, Xs, Ys, _ = accepted_steps(math.pi, Y_star, co_n, tau, 1e-13, 1e-15)
    x0, y0 = physical_coords(ts[0], Xs[0], Ys[0], co_n, shifted)
    x1, y1 = physical_coords(ts[-1], Xs[-1], Ys[-1], co_n, shifted)
    return ClosedOrbit(Y_level=float(Y_star), tau=float(tau),
                       drift_residual=float(residual), x_close_err=abs(x1 - x0),
                       y_close_err=abs(y1 - y0), wavelength=params.wavelength,
                       depth=params.h)


def drift_csv_rows(reports: list[DriftReport], k: float):
    yield DRIFT_HEADER
    for r in reports:
        yield (f"{r.Y0:.17g},{r.Y0 / k:.17g},{r.tau:.17g},{r.drift_m:.17g},"
               f"{r.direction},{r.layer}")


def trajectory_csv_rows(traj: Trajectory):
    yield TRAJECTORY_HEADER
    for row in zip(traj.t, traj.X, traj.Y, traj.x, traj.y, traj.H):
        yield ",".join(f"{v:.17g}" for v in row)


def read_seeds(text: str) -> list[tuple[float, float]]:
    """Parse a seeds file: one ``X0 Y0`` pair per line, ``#`` comments."""
    seeds = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DomainError(f"malformed seed on line {lineno}: {raw!r}")
        try:
            seeds.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise DomainError(f"non-numeric seed on line {lineno}: {raw!r}") from None
    return seeds

"""Transit times, per-period drift and closed physical orbits, on scalars.

Steady-frame orbits are level curves of the Hamiltonian; the physical
particle path is recovered through x = (X + f*t)/k, y = Y/k.  Whether a
particle drifts with or against the wave is decided by the transit time
tau of its steady orbit across one period: over a transit the physical
displacement is (f*tau - 2*pi)/k, so tau > 2*pi/f means forward drift.

Along every orbit dY/dt = Ak sin X sinh Y, so Y is monotone between the
X = 0 and X = pi sections and each piece of an orbit there is a graph
cos X = G(Y).  One walk, ``_orbit``, classifies every start: one off X = pi
is first followed along its graph to its X = pi end; from there the orbit
leaves upward where dX/dt < 0, else downward, and its family is where its
graph first meets a section (``steady.level_end`` cut at the flow's census,
which also ends the portrait's arms; the bed, Y0 = 0, is invariant:
bed_adjacent).  ``classify_layer``, ``orbit_layer``, ``section_height``,
the transit times and the drift profile all read that walk:

* X = 0: a transit, internal_wave running left or surface_wave running
  right; tau comes from tanh-sinh quadrature over Y along its graph
  between its two section heights, with an error estimate, or in closed
  form on a flat level.  A leftward transit drifts forward or backward; a
  rightward one moves forward throughout;
* X = pi again: a closed vortex loop (negative-vorticity cat's eye), whose
  period T comes from the same quadrature over Y; the particle advances
  f*T/k per loop;
* neither below Y_GUARD: unbounded, hugging a vertical asymptote, so X
  stays bounded and the mean physical velocity is f/k.

Trajectories for export are integrated here too, by DOP853 or the
implicit midpoint rule, as lists; ``paths`` wraps them into arrays.  Like
``steady``, this module runs on ``math`` without numpy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cache
from typing import NamedTuple

from .dop853 import INTERRUPTED, TOO_MANY_STEPS, dop853
from .errors import DomainError, NumericsError, UnsupportedConfig
from .params import WaveParams, check_hyperbolic
from .steady import (Y_GUARD, SteadyCoeffs, bracketed_root, find_critical_points, level_end,
                     linspace)

#: |Y| above which a step-size collapse is read as an escape to infinity
#: (the hyperbolic blow-up outruns the representable time resolution long
#: before |Y| reaches the overflow guard).
Y_ESCAPE_MIN = 30.0

#: Step budget of one integration: DOP853 stops after this many steps,
#: accepted or rejected, and the midpoint rule refuses a run that needs
#: more.  That is 1,000 times the 2,000 steps of a default midpoint run.
MAX_STEPS = 2_000_000

#: Most drift levels (``drift --levels``): 80,000 levels of fig2, the
#: slowest preset at 0.7 ms a level, take about a minute on a 2-vCPU VM.
MAX_LEVELS = 80_000

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

    def solout(t_old, t, z):
        ts.append(t)
        Xs.append(z[0])
        Ys.append(z[1])
        return abs(z[1]) > Y_GUARD

    idid = dop853(_scalar_rhs(co), 0.0, (float(X0), float(Y0)), t_end,
                  rtol, atol, solout, nmax=MAX_STEPS)
    escaped = idid == INTERRUPTED
    if escaped and len(ts) > 1:     # the step past Y_GUARD is not kept
        del ts[-1], Xs[-1], Ys[-1]
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
    shifted: bool = False
    layer: str | None = None
    truncated: bool = False

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
    """DomainError unless the start point is finite with 0 <= Y0 <= Y_GUARD,
    the end time positive and finite, and each named tolerance or step size
    positive and finite.  The rows after the start stay at |Y| <= Y_GUARD
    (``accepted_steps``, ``midpoint_trajectory``)."""
    if not (math.isfinite(X0) and math.isfinite(Y0)):
        raise DomainError(f"the start point must be finite, got ({X0!r}, {Y0!r})")
    if Y0 < 0:
        raise DomainError("Y0 must be nonnegative")
    if Y0 > Y_GUARD:
        raise DomainError(f"Y0 = {Y0!r} is above the hyperbolic guard Y = {Y_GUARD:g}")
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    for name, value in steps.items():
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


def steady_trajectory(X0: float, Y0: float, co: SteadyCoeffs, t_end: float,
                      rtol: float = 1e-10, atol: float = 1e-12,
                      shifted: bool = False) -> Trajectory:
    """DOP853 trajectory from (X0, Y0) over [0, t_end] at every accepted
    step, as lists, with H on ``math``; truncated when the orbit escapes
    (see accepted_steps)."""
    check_trajectory_start(X0, Y0, t_end, rtol=rtol, atol=atol)
    ts, Xs, Ys, escaped = accepted_steps(X0, Y0, co, t_end, rtol, atol)
    return _trajectory(ts, Xs, Ys, co, shifted, escaped)


def _trajectory(ts, Xs, Ys, co, shifted, truncated) -> Trajectory:
    xs, ys = [], []
    for t, X, Y in zip(ts, Xs, Ys):
        x, y = physical_coords(t, X, Y, co, shifted)
        xs.append(x)
        ys.append(y)
    H = [co.H(X, Y, math) for X, Y in zip(Xs, Ys)]
    return Trajectory(ts, Xs, Ys, xs, ys, H, shifted=shifted, truncated=truncated)


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
    [0, t_end], as lists, with H on ``math``.

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
    # The times of the kept rows, as linspace(0, t_end, n + 1) gives them.
    ts = [i * dt for i in range(len(Xs))]
    if len(Xs) > n:
        ts[-1] = t_end
    return _trajectory(ts, Xs, Ys, co, shifted, len(Xs) <= n)


# ----------------------------------------------------------------------
# Layer classification
# ----------------------------------------------------------------------

def layer_boundaries(co_n: SteadyCoeffs) -> dict:
    """A report of the census and, in the paper's topologies (a saddle P0
    lowest at X = 0, none or two points P1 < P2 at X = pi), H0 = H(P0), Y_P0,
    Y_P1, Y_P2 and where P0's level meets X = pi: Y_lower, the end of its
    walk down from P0, and, with P1 and P2, Y_upper, the end of its walk up
    (``level_end``, which also ends the portrait's P0 arms), each where that
    walk ends on X = pi.  The drift layers are read from the census alone."""
    cps = find_critical_points(co_n)
    out = {"critical_points": cps}
    at_zero = [cp for cp in cps if cp.X == 0.0]
    roots = [cp.Y for cp in cps if cp.X != 0.0]
    if not at_zero or at_zero[0].kind != "saddle" or len(roots) not in (0, 2):
        return out
    out["H0"], out["Y_P0"] = at_zero[0].H_value, at_zero[0].Y
    out.update(zip(("Y_P1", "Y_P2"), roots))
    for key, up in (("Y_lower", False), ("Y_upper", True))[:1 + len(roots) // 2]:
        end = level_end(co_n, 0.0, out["Y_P0"], up)
        if end is not None and end[1] == math.pi:
            out[key] = end[0]
    return out


def _orbit(X0: float, Y0: float,
           co_n: SteadyCoeffs) -> tuple[str, float | None, float | None]:
    """The one level walk: the family of the orbit through (X0, Y0), its
    height Y_pi on X = pi and the other end of its level graph from there.

    A start whose H(X0, Y0) - H(pi, Y0) is within one ulp of H's terms is on
    the level through (pi, Y0): on X = pi, or on a level flat to rounding.
    Any other takes the X = pi end of its two graph ends (``level_end``),
    first the one followed down where dX/dt < 0 and up where dX/dt > 0;
    with neither there it is a loop around a center on X = 0 (both on
    X = 0) or unbounded.  From (pi, Y_pi) the graph leaves upward where
    dX/dt < 0, else downward, and ends at Y_end: the return height of a
    vortex loop, the height on X = 0 of a leftward (internal) or rightward
    (surface) transit, None for the unbounded family."""
    if Y0 < 0:
        raise DomainError("Y0 must be nonnegative")
    if Y0 == 0.0:
        return "bed_adjacent", Y0, 0.0
    if co_n.Ak == 0.0:
        return "internal_wave", Y0, None  # wave-free shear: every level moves uniformly
    shear = abs(0.5 * co_n.omega * Y0 * Y0) + co_n.f * Y0  # the size of H's other terms
    if co_n.Ak * math.sinh(check_hyperbolic(Y0)) * (1.0 + math.cos(X0)) > math.ulp(shear):
        up = co_n.H_Y(X0, Y0, math) > 0.0
        ends = [level_end(co_n, X0, Y0, up)]
        if ends[0] is None or ends[0][1] == 0.0:
            ends.append(level_end(co_n, X0, Y0, not up))
        if ends[-1] is None or ends[-1][1] == 0.0:
            return ("unbounded" if None in ends else "vortex"), None, None
        Y0 = ends[-1][0]
    up = co_n.H_Y(math.pi, Y0, math) < 0.0
    end = level_end(co_n, math.pi, Y0, up)
    if end is None and not up:
        raise NumericsError(f"the level through (pi, {Y0!r}) meets neither section "
                            "above the bed", diagnostics={"Y0": Y0})
    if end is None:
        return "unbounded", Y0, None
    return ("vortex" if end[1] != 0.0 else "internal_wave" if up else "surface_wave",
            Y0, end[0])


def classify_layer(Y0: float, co_n: SteadyCoeffs) -> str:
    """Orbit family, one of LAYERS, of the orbit through (pi, Y0) (``_orbit``)."""
    return _orbit(math.pi, Y0, co_n)[0]


def orbit_layer(X0: float, Y0: float, co_n: SteadyCoeffs) -> str:
    """Orbit family, one of LAYERS, of the orbit through (X0, Y0) (``_orbit``)."""
    return _orbit(X0, Y0, co_n)[0]


def section_height(X0: float, Y0: float, co_n: SteadyCoeffs) -> float | None:
    """Height at which the orbit through (X0, Y0) crosses the X = pi section,
    Y0 itself on that section; None for an orbit that never meets it, a loop
    around a center on X = 0 or the unbounded family (see ``_orbit``)."""
    return _orbit(X0, Y0, co_n)[1]


# ----------------------------------------------------------------------
# Transit times and loop periods
# ----------------------------------------------------------------------

#: Tanh-sinh quadrature of transit times and loop periods over u in [0, pi]:
#: nodes at t = j*h for |t| <= TS_T_MAX, where the weights fall below
#: 1e-20; h is halved from TS_H0 until two estimates agree to TS_RTOL, at
#: most TS_MAX_HALVINGS times.
TS_T_MAX = 3.5
TS_H0 = 0.5
TS_RTOL = 1e-13
TS_MAX_HALVINGS = 7


@cache
def _tanh_sinh_nodes(halving: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes u in [0, pi] and weights du/dt of u = (pi/2)(1 + tanh((pi/2) sinh t))
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


def _tau_quadrature(Y0: float, co_n: SteadyCoeffs, layer: str,
                    Y_end: float | None) -> tuple[float, bool, float] | None:
    """Transit time over one X-period along the orbit through (pi, Y0) in
    family ``layer`` and with height Y_end on X = 0, whether it runs
    rightward, and an error estimate of the time.  None where the orbit does
    not transit: a vortex loop, the asymptote-bound family, or a flat level
    with stagnation points.

    A flat level, Y_end == Y0 (the bed, a wave-free shear, or a level whose
    X = 0 height rounds to Y0), stays at Y0, where dX/dt = b cos X - s with
    b = Ak cosh Y0 and s = f + omega*Y0: tau = 2 pi / sqrt((s - b)(s + b)),
    rightward where s < 0, exact to rounding.  Any other transit is the
    graph cos X = G(Y) from (pi, Y0) to (0, Y_end), run once on each side of
    X = 0, so tau = 2 * integral of dY / sqrt(p q) with
    p = H(pi, Y0) - H(pi, Y) and q = H(0, Y) - H(0, Y_end), each a rise from
    its own end (on the level p q = (Ak sinh Y sin X)^2), split at
    sqrt(Y0*Y_end) into two ``_half_graph`` integrals."""
    if layer in ("vortex", "unbounded"):
        return None
    if co_n.Ak == 0.0 or Y_end == Y0:
        b, s = co_n.Ak * math.cosh(Y0), co_n.f + co_n.omega * Y0
        rate = (s - b) * (s + b)
        return (2.0 * math.pi / math.sqrt(rate), s < 0.0, 0.0) if rate > 0.0 else None
    Ym, gap = math.sqrt(Y0 * Y_end), Y0 - Y_end
    p = lambda d: -co_n.H_rise(math.pi, Y0, d)
    q = lambda d: co_n.H_rise(0.0, Y_end, d)
    (Ta, err_a), (Tb, err_b) = (_half_graph(Y0, Ym, lambda d: p(d) * q(gap + d), Y0),
                                _half_graph(Y_end, Ym, lambda d: p(d - gap) * q(d), Y0))
    return 2.0 * (Ta + Tb), layer == "surface_wave", 2.0 * (err_a + err_b)


def _half_graph(Ye: float, Ym: float, S, Y0: float) -> tuple[float, float]:
    """Time between the heights Ye and Ym on the level through (pi, Y0), the
    integral of |dY| / sqrt(S(Y - Ye)), and its error estimate
    (``_tanh_sinh``).  S is the level's
    (Ak sinh Y sin X)^2 written from Ye, where it vanishes; the substitution
    Y = Ye + (Ym - Ye)(u/pi)^2, u in [0, pi], removes the 1/sqrt
    singularity there.  A non-positive S refuses the level as within
    rounding of its separatrix."""
    c = (Ym - Ye) / math.pi ** 2

    def dt_du(u):
        d = c * u * u
        s = S(d)
        if not s > 0.0:
            raise NumericsError(f"level Y0 = {Y0!r} within rounding of its separatrix",
                                diagnostics={"Y0": Y0, "Y": Ye + d})
        return 2.0 * abs(c) * u / math.sqrt(s)
    return _tanh_sinh(dt_du)


def _tanh_sinh(fn) -> tuple[float, float]:
    """Integral of ``fn`` over [0, pi] on the ``_tanh_sinh_nodes`` table and
    the difference of its last two estimates, the error estimate."""
    def weighted_sum(halving):
        return math.fsum(w * fn(X) for X, w in zip(*_tanh_sinh_nodes(halving)))

    h = TS_H0
    estimate = h * weighted_sum(0)
    for halving in range(1, TS_MAX_HALVINGS + 1):
        h /= 2.0
        previous = estimate
        estimate = 0.5 * previous + h * weighted_sum(halving)
        if abs(estimate - previous) <= TS_RTOL * abs(estimate):
            break
    return estimate, abs(estimate - previous)


def transit_time_tau(Y0: float, co: SteadyCoeffs) -> float | None:
    """Time for the steady orbit through (pi, Y0) to cross one X-period, or
    None where it does not transit (``_tau_quadrature``); ``section_height``
    gives the Y0 of a start off X = pi."""
    co_n, _ = co.normalized()
    layer, _, Y_end = _orbit(math.pi, Y0, co_n)
    transit = _tau_quadrature(Y0, co_n, layer, Y_end)
    return None if transit is None else transit[0]


def _loop_period(Y0: float, Y1: float,
                 co_n: SteadyCoeffs) -> tuple[float, float] | None:
    """Period of the vortex loop from (pi, Y0) back to (pi, Y1) and an error
    estimate of it; None at the center.

    The loop is the graph cos X = G(Y) = (H0 + omega*Y^2/2 + f*Y)/(Ak sinh Y)
    between Ya < Yb, run once on each side of X = pi, so
    T = 2 * integral of dY / (Ak sinh Y sqrt((1 - G)(1 + G))), split at the
    census's first height inside (Ya, Yb): the saddle at X = 0 of the paper's
    cat's eye where there is one, else the loop's center.  Each half takes
    its level from its end Ye, so p = (1 + G) Ak sinh Y = H(pi, Ye) - H(pi, Y)
    and (Ak sinh Y sin X)^2 = p (2 Ak sinh Y - p) (``_half_graph``).

    The loop's least dX/dt is H_Y(pi, Ya), at its bottom: on the loop
    dX/dt = H_Y(X, Y) >= H_Y(pi, Y), as Ak >= 0, and H_Y(pi, .) is concave,
    negative at Ya below the center and positive at Yb below the saddle.
    """
    Ak, omega, f = co_n.Ak, co_n.omega, co_n.f
    Ya, Yb = sorted((Y0, Y1))
    Ym = next((cp.Y for cp in find_critical_points(co_n) if Ya < cp.Y < Yb), None)
    scale = Ak * math.cosh(Y0) + abs(omega) * Y0 + f
    if Ym is None or abs(co_n.H_Y(math.pi, Y0, math)) <= 1e-13 * scale:
        return None  # at the center to rounding: no loop to time

    def half(Ye):
        def S(d):
            p = -co_n.H_rise(math.pi, Ye, d)
            return p * (2.0 * Ak * math.sinh(Ye + d) - p)
        return _half_graph(Ye, Ym, S, Y0)

    (Ta, err_a), (Tb, err_b) = half(Ya), half(Yb)
    return 2.0 * (Ta + Tb), 2.0 * (err_a + err_b)


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
    #: Quadrature-only error estimate of tau, a transit or a loop; 0.0 on a
    #: flat level, whose tau is in closed form.  Next to a separatrix the
    #: rounding of the level dominates: the true error can be 150,000 times
    #: larger for a transit and 23 times for a loop (README, "Numerical
    #: notes").
    tau_err: float = math.nan


def _trichotomy(tau: float, f: float) -> str:
    period = 2.0 * math.pi / f
    if abs(tau - period) <= 1e-12 * period:
        return "closed"
    return "forward" if tau > period else "backward"


def drift_per_period(Y0: float, co: SteadyCoeffs) -> DriftReport:
    """Drift classification of the orbit through (pi, Y0).

    Leftward transits displace the particle by (f*tau - 2*pi)/k per
    period; the sign of tau - 2*pi/f decides forward/backward/closed.
    Rightward transits have positive physical velocity throughout and are
    reported always_forward.  Vortex loops advance f*T/k per loop (always
    forward; the center moves in a straight line at speed f/k).
    """
    co_n, _ = co.normalized()
    layer, _, Y_end = _orbit(math.pi, Y0, co_n)
    f, k = co_n.f, co_n.k
    transit = _tau_quadrature(Y0, co_n, layer, Y_end)
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
    loop = _loop_period(Y0, Y_end, co_n)
    if loop is None:
        # The center itself, at rest in the steady frame: straight-line
        # forward motion at speed f/k.
        return DriftReport(Y0=Y0, tau=math.nan, drift_m=math.nan,
                           direction="always_forward", layer=layer, mean_speed=f / k)
    T, tau_err = loop
    drift = f * T / k
    # The loop's least dX/dt is at its bottom (``_loop_period``).
    bottom_xdot = co_n.H_Y(math.pi, min(Y0, Y_end), math)
    direction = "always_forward" if bottom_xdot > -f else "forward"
    return DriftReport(Y0=Y0, tau=T, drift_m=drift, direction=direction,
                       layer=layer, mean_speed=f / k, tau_err=tau_err)


def _drift_coeffs(params: WaveParams) -> tuple[SteadyCoeffs, bool]:
    """``normalized()`` coefficients of a right-going wave whose surface
    stays above the bed (a < h)."""
    if params.c <= 0:
        raise UnsupportedConfig("drift analysis assumes a right-going wave (c > 0)")
    if params.a >= params.h:
        raise DomainError(f"the surface reaches the bed: a = {params.a:g} >= h = {params.h:g}")
    return SteadyCoeffs.from_params(params).normalized()


def fluid_top_level(params: WaveParams, shifted: bool) -> float:
    """Steady height of the free surface over the X = pi sampling column."""
    x_phys = 0.0 if shifted else math.pi
    return params.k * (params.h + params.a * math.cos(x_phys))


def drift_profile(params: WaveParams, n: int = 64) -> list[DriftReport]:
    """Drift reports on the X = pi column: the bed and ``n - 1`` heights up
    to just below the free surface, geometrically spaced to resolve thin
    near-bed layers (numpy's ``geomspace`` to one ulp).  Heights are
    steady-frame (Y = k*y) and invariant under the normalization shift."""
    co_n, shifted = _drift_coeffs(params)
    if not 1 <= n <= MAX_LEVELS:
        raise DomainError(f"the number of drift levels must be from 1 to {MAX_LEVELS}, "
                          f"got {n}")
    # Positive: a < h, and WaveParams keeps k*h >= 1e-300.
    top = 0.999 * fluid_top_level(params, shifted)
    logs = linspace(math.log10(1e-5 * top), math.log10(top), n - 1)
    levels = ([0.0, 1e-5 * top] + [10.0 ** y for y in logs[1:-1]] + [top])[:n]
    return [drift_per_period(Y0, co_n) for Y0 in levels]


class ClosedOrbit(NamedTuple):
    """A closed physical particle orbit and the verdict of its closure check."""

    Y_level: float
    tau: float
    x_close_err: float      # |x(T) - x(0)| from direct integration
    y_close_err: float      # |y(T) - y(0)| from direct integration
    verified: bool          # both below 1e-10 of the wavelength and the depth


def find_closed_orbit(params: WaveParams) -> ClosedOrbit | None:
    """Locate a height whose particle orbit closes in the physical frame.

    Root-finds the per-period drift from the bed to just below the free
    surface with Brent's method to 1e-15 in Y.  Returns None when the drift
    does not change sign across that bracket, in which case no closed orbit
    is detectable there.  A found level is verified by integrating one full
    period and measuring the closure error directly (``verified``: 1e-10 of
    the wavelength and the depth).
    """
    co_n, shifted = _drift_coeffs(params)
    lo, hi = 0.0, 0.98 * fluid_top_level(params, shifted)

    drift = lambda Y0: drift_per_period(Y0, co_n).drift_m
    d_lo, d_hi = drift(lo), drift(hi)
    if not (math.isfinite(d_lo) and math.isfinite(d_hi)) or d_lo * d_hi > 0:
        return None
    Y_star = bracketed_root(drift, lo, hi, 1e-15, maxiter=300,
                            what="closed-orbit level")
    report = drift_per_period(Y_star, co_n)
    if report.layer == "vortex" or math.isnan(report.tau):
        raise NumericsError("closed-orbit candidate does not transit",
                            diagnostics={"Y": Y_star})
    ts, Xs, Ys, _ = accepted_steps(math.pi, Y_star, co_n, report.tau, 1e-13, 1e-15)
    x0, y0 = physical_coords(ts[0], Xs[0], Ys[0], co_n, shifted)
    x1, y1 = physical_coords(ts[-1], Xs[-1], Ys[-1], co_n, shifted)
    x_err, y_err = abs(x1 - x0), abs(y1 - y0)
    return ClosedOrbit(Y_level=float(Y_star), tau=float(report.tau), x_close_err=x_err,
                       y_close_err=y_err, verified=(x_err < 1e-10 * params.wavelength
                                                    and y_err < 1e-10 * params.h))


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

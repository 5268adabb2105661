"""Particle trajectories in the steady and physical frames, with a
Hamiltonian audit: the array face of ``drift``.  Adaptive trajectories,
transit times, drift and closed orbits are computed there without numpy,
and their names are re-exported here; this module returns trajectories as
numpy arrays and adds the fixed-step implicit midpoint rule.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .drift import (DRIFT_HEADER, LAYERS, TRAJECTORY_HEADER, TS_H0, TS_MAX_HALVINGS,
                    TS_RTOL, TS_T_MAX, Y_ESCAPE_MIN, Y_GUARD, ClosedOrbit, DriftReport,
                    Trajectory, _h_at_pi, _loop_period_and_min_xdot, _piece_bracket,
                    _scalar_rhs, _tau_quadrature, _trichotomy, accepted_steps,
                    check_trajectory_start, classify_layer, drift_csv_rows,
                    drift_per_period, drift_profile, find_closed_orbit,
                    fluid_top_level, layer_boundaries, physical_coords, read_seeds,
                    section_height, steady_trajectory, trajectory_csv_rows,
                    transit_time_tau)
from .errors import DomainError, NumericsError
from .fields import hamiltonian
from .steady import SteadyCoeffs


# ----------------------------------------------------------------------
# Frame conversion
# ----------------------------------------------------------------------

def to_physical(traj: "Trajectory", co: SteadyCoeffs | None = None):
    """Physical path (x, y) in meters from a steady-frame trajectory.

    Inverts X = k*x - f*t, Y = k*y; when the trajectory was integrated in
    the shift-normalized frame (negative wave coefficient), the half-period
    shift is removed first.
    """
    return physical_coords(traj.t, traj.X, traj.Y, co or traj.co, traj.shifted)


def to_steady(t, x, y, co: SteadyCoeffs, shifted: bool = False):
    """Steady-frame coordinates (X, Y) of a physical state."""
    shift = math.pi if shifted else 0.0
    X = co.k * np.asarray(x, float) - co.f * np.asarray(t, float) + shift
    Y = co.k * np.asarray(y, float)
    return X, Y


# ----------------------------------------------------------------------
# Integration
# ----------------------------------------------------------------------

def integrate_steady(X0: float, Y0: float, co: SteadyCoeffs, t_end: float,
                     rtol: float = 1e-10, atol: float = 1e-12,
                     method: str = "adaptive", dt: float | None = None,
                     shifted: bool = False) -> Trajectory:
    """Integrate the steady system from (X0, Y0) over [0, t_end].

    ``method="adaptive"`` uses an 8th-order embedded Runge-Kutta pair with
    the given tolerances; ``method="midpoint"`` is a fixed-step implicit
    midpoint rule (symplectic) with step ``dt`` for long-horizon runs.
    The Hamiltonian is recorded at every accepted step; the audit, not the
    scheme, is the quality gate.  A trajectory escaping |Y| > 700 is
    truncated and flagged.
    """
    if method == "adaptive":
        traj = steady_trajectory(X0, Y0, co, t_end, rtol, atol, shifted)
    elif method == "midpoint":
        check_trajectory_start(X0, Y0, t_end, rtol, atol)
        if dt is None:
            dt = t_end / 2000.0
        traj = _integrate_midpoint(X0, Y0, co, t_end, dt, shifted)
    else:
        raise DomainError(f"unknown method {method!r}")
    traj = dataclasses.replace(traj, **{name: np.asarray(getattr(traj, name), float)
                                        for name in ("t", "X", "Y", "x", "y", "H")})
    if co.Ak >= 0:
        try:
            ysec = section_height(X0, Y0, co)
            traj.layer = ("unbounded" if ysec is None
                          else classify_layer(ysec, co))
        except NumericsError:
            traj.layer = None
    return traj


def _rhs(t, z, co):
    # Integrator stage probes may overshoot into overflow territory; let
    # inf/nan propagate so the step is rejected instead of raising.
    X, Y = z
    with np.errstate(over="ignore", invalid="ignore"):
        return co.H_Y(X, Y, np), -co.H_X(X, Y, np)


def _integrate_midpoint(X0, Y0, co, t_end, dt, shifted):
    n = max(1, int(round(t_end / dt)))
    dt = t_end / n
    ts = np.linspace(0.0, t_end, n + 1)
    Z = np.empty((n + 1, 2))
    Z[0] = (X0, Y0)
    z = np.array([X0, Y0], dtype=float)
    for i in range(n):
        zm = z + 0.5 * dt * np.asarray(_rhs(0.0, z, co))
        # Newton on z_new = z + dt * F((z + z_new)/2).
        z_new = z + dt * np.asarray(_rhs(0.0, zm, co))
        for _ in range(8):
            mid = 0.5 * (z + z_new)
            F = np.asarray(_rhs(0.0, mid, co))
            G = z_new - z - dt * F
            if float(np.max(np.abs(G))) < 1e-14 * (1.0 + float(np.max(np.abs(z)))):
                break
            Hxx, Hxy, Hyy = co.hessian(mid[0], mid[1], math)
            J = np.array([[Hxy, Hyy], [-Hxx, -Hxy]])
            M = np.eye(2) - 0.5 * dt * J
            z_new = z_new - np.linalg.solve(M, G)
        z = z_new
        if abs(z[1]) > Y_GUARD:
            Z = Z[:i + 2]
            ts = ts[:i + 2]
            Z[i + 1] = z
            return _midpoint_trajectory(ts, Z, co, shifted, True)
        Z[i + 1] = z
    return _midpoint_trajectory(ts, Z, co, shifted, False)


def _midpoint_trajectory(ts, Z, co, shifted, truncated) -> Trajectory:
    X, Y = Z[:, 0], Z[:, 1]
    x, y = physical_coords(ts, X, Y, co, shifted)
    return Trajectory(t=ts, X=X, Y=Y, x=x, y=y, H=np.asarray(hamiltonian(X, Y, co)),
                      co=co, shifted=shifted, truncated=truncated, method="midpoint")

"""Particle trajectories in the steady and physical frames, with a
Hamiltonian audit: the array face of ``drift``.  Trajectories, transit
times, drift and closed orbits are computed there without numpy, and their
names are re-exported here; this module returns trajectories as numpy
arrays.
"""

from __future__ import annotations

import numpy as np

from .drift import (DRIFT_HEADER, LAYERS, TRAJECTORY_HEADER, TS_H0, TS_MAX_HALVINGS,
                    TS_RTOL, TS_T_MAX, Y_ESCAPE_MIN, Y_GUARD, ClosedOrbit, DriftReport,
                    Trajectory, _h_at_pi, _loop_period_and_min_xdot, _piece_bracket,
                    _scalar_rhs, _tau_quadrature, _trichotomy, accepted_steps,
                    check_trajectory_start, classify_layer, drift_csv_rows,
                    drift_per_period, drift_profile, find_closed_orbit,
                    fluid_top_level, layer_boundaries, midpoint_trajectory,
                    physical_coords, read_seeds, section_height, steady_trajectory,
                    trajectory_csv_rows, transit_time_tau)
from .errors import DomainError, NumericsError
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
    truncated and flagged.  Both schemes run in ``drift`` on ``math``.
    """
    if method == "adaptive":
        traj = steady_trajectory(X0, Y0, co, t_end, rtol, atol, shifted)
    elif method == "midpoint":
        check_trajectory_start(X0, Y0, t_end, rtol=rtol, atol=atol)
        traj = midpoint_trajectory(X0, Y0, co, t_end,
                                   t_end / 2000.0 if dt is None else dt, shifted)
    else:
        raise DomainError(f"unknown method {method!r}")
    layer = None
    if co.Ak >= 0:
        try:
            ysec = section_height(X0, Y0, co)
            layer = "unbounded" if ysec is None else classify_layer(ysec, co)
        except NumericsError:
            pass
    return traj._replace(layer=layer, **{name: np.asarray(getattr(traj, name), float)
                                         for name in ("t", "X", "Y", "x", "y", "H")})

"""Particle trajectories in the steady and physical frames, with a
Hamiltonian audit: the array face of ``drift``.  Trajectories, transit
times, drift and closed orbits are computed there without numpy; this
module returns trajectories as numpy arrays.  Every other path name is
imported from ``drift``, where it is defined.
"""

from __future__ import annotations

import numpy as np

# LAYERS, TRAJECTORY_HEADER, the two CSV writers, drift_per_period,
# drift_profile, find_closed_orbit and layer_boundaries are here only for
# perfbench, which binds them on this module (``TARGETS`` in
# ``perfbench/tracing.py``, and ``perfbench/workloads.py``).
from .drift import (LAYERS, TRAJECTORY_HEADER, Trajectory, check_trajectory_start,
                    drift_csv_rows, drift_per_period, drift_profile, find_closed_orbit,
                    layer_boundaries, midpoint_trajectory, orbit_layer, steady_trajectory,
                    trajectory_csv_rows)
from .errors import DomainError, NumericsError
from .steady import SteadyCoeffs


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
            layer = orbit_layer(X0, Y0, co)
        except NumericsError:
            pass
    return traj._replace(layer=layer, **{name: np.asarray(getattr(traj, name), float)
                                         for name in ("t", "X", "Y", "x", "y", "H")})

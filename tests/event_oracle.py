"""The event oracle of a drift level: scipy's DOP853 with event detection,
which knows nothing of level graphs, shared by the tests that check drift
labels against direct integration."""

import math

import numpy as np
from scipy.integrate import solve_ivp

#: Climb above the start at which the oracle calls an orbit unbounded.
ESCAPE_CLIMB = 20.0


def event_oracle(Y0, co):
    """Family and period of the orbit from (pi, Y0) by direct integration:
    the first of a crossing of X = 0 (leftward) or X = 2*pi (rightward), a
    return to X = pi, or a climb of ESCAPE_CLIMB; the period is twice the
    time of that event."""
    def rhs(t, z):
        # DOP853 probes its stages past where an unbounded orbit climbs, and
        # cosh/sinh overflow there; the step is then rejected and shortened,
        # so the inf and nan it sees are expected, not a fault.
        with np.errstate(over="ignore", invalid="ignore"):
            return co.H_Y(z[0], z[1], np), -co.H_X(z[0], z[1], np)

    def crossing(target, direction):
        def event(t, z):
            return z[0] - target
        event.terminal, event.direction = True, direction
        return event

    def escape(t, z):
        return z[1] - (Y0 + ESCAPE_CLIMB)
    escape.terminal, escape.direction = True, 1

    if co.H_Y(math.pi, Y0, math) < 0.0:
        events = {"internal_wave": crossing(0.0, -1), "vortex": crossing(math.pi, 1)}
    else:
        events = {"surface_wave": crossing(2.0 * math.pi, 1),
                  "vortex": crossing(math.pi, -1)}
    events["unbounded"] = escape
    sol = solve_ivp(rhs, (0.0, 1e4 * 2.0 * math.pi / co.f), (math.pi, Y0),
                    method="DOP853", rtol=1e-12, atol=1e-12, events=list(events.values()))
    hits = [(t[0], name) for t, name in zip(sol.t_events, events) if t.size]
    assert hits, f"the orbit from Y0 = {Y0} meets no event"
    t, name = min(hits)
    return name, math.nan if name == "unbounded" else 2.0 * t

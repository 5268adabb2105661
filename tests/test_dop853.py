"""The DOP853 port against scipy's ``ode('dop853')``, the independent
oracle: on a seeded fuzz of the steady system, every accepted step
(t, X, Y) and the outcome agree bit for bit."""

import math
import random
import warnings

import pytest
from scipy.integrate import ode

from shearwave import SteadyCoeffs, from_mapping
from shearwave.cli import PRESETS
from shearwave.dop853 import (INTERRUPTED, STEP_TOO_SMALL, STIFF, SUCCESS,
                              TOO_MANY_STEPS, dop853)
from shearwave.drift import Y_GUARD, _scalar_rhs

FUZZ_SEED = 20261018
FUZZ_CASES = 120


def scipy_steps(fcn, y0, t_end, rtol, atol, guard=math.inf, nsteps=10 ** 9):
    """Accepted steps and istate of scipy's compiled DOP853."""
    steps = []

    def solout(t, z):
        steps.append((t, float(z[0]), float(z[1])))
        return -1 if abs(z[1]) > guard else 0

    solver = ode(lambda t, z: list(fcn(z[0], z[1]))).set_integrator(
        "dop853", rtol=rtol, atol=atol, nsteps=nsteps)
    solver.set_solout(solout)
    solver.set_initial_value(list(y0), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        solver.integrate(t_end)
    return steps, solver._integrator.istate


def port_steps(fcn, y0, t_end, rtol, atol, guard=math.inf, nmax=10 ** 9):
    steps = []

    def solout(t_old, t, z):
        steps.append((t, z[0], z[1]))
        return abs(z[1]) > guard

    idid = dop853(fcn, 0.0, y0, t_end, rtol, atol, solout, nmax=nmax)
    return steps, idid


def fuzz_cases():
    """Presets, starts, horizons and tolerances, each stopped above
    Y_GUARD; then an escape stopped at Y = 50, and an escape with no stop
    whose stage probes overflow cosh until the step size reaches its floor
    (the last two steps before the floor depend on its rounding unit)."""
    rng = random.Random(FUZZ_SEED)
    names = sorted(PRESETS)
    cases = []
    for _ in range(FUZZ_CASES):
        name = rng.choice(names)
        p = from_mapping(PRESETS[name]["params"])
        period = 2.0 * math.pi / p.f
        cases.append((name, rng.uniform(-math.pi, math.pi),
                      rng.uniform(0.0, 1.5 * p.k * p.h),
                      rng.uniform(0.1, 3.0) * period,
                      10.0 ** rng.uniform(-13, -5), 10.0 ** rng.uniform(-15, -8),
                      Y_GUARD))
    cases.append(("fig3", 1.2, 20.0, 3.0, 1e-10, 1e-12, 50.0))
    cases.append(("fig1", 2.8, 45.0, 3.0, 1e-10, 1e-12, math.inf))
    return cases


def test_fuzz_matches_scipy_bit_for_bit():
    outcomes = {}
    mismatched = []
    longest = overflows = 0
    for i, (name, X0, Y0, t_end, rtol, atol, guard) in enumerate(fuzz_cases()):
        co, _ = SteadyCoeffs.from_params(
            from_mapping(PRESETS[name]["params"])).normalized()
        rhs = _scalar_rhs(co)

        def fcn(X, Y):
            nonlocal overflows
            value = rhs(X, Y)
            overflows += value[0] == math.inf
            return value

        want, istate = scipy_steps(fcn, (X0, Y0), t_end, rtol, atol, guard)
        got, idid = port_steps(fcn, (X0, Y0), t_end, rtol, atol, guard)
        if got != want or idid != istate:
            mismatched.append(i)
        outcomes[idid] = outcomes.get(idid, 0) + 1
        longest = max(longest, len(got))
    assert not mismatched, f"cases differing from scipy: {mismatched}"
    # The fuzz reaches the escape stop, the overflow, the step-size floor
    # and, past 1000 accepted steps, the stiffness test.
    assert outcomes == {SUCCESS: FUZZ_CASES, INTERRUPTED: 1, STEP_TOO_SMALL: 1}
    assert overflows and longest > 1000


def test_stop_at_the_initial_point():
    # Hairer's code reports INTERRUPTED; scipy's C translation reports a
    # step-size failure.  The output, the initial point alone, is the same.
    co, _ = SteadyCoeffs.from_params(from_mapping(PRESETS["fig1"]["params"])).normalized()
    want, istate = scipy_steps(_scalar_rhs(co), (0.3, 0.5), 3.0, 1e-10, 1e-12, 0.1)
    got, idid = port_steps(_scalar_rhs(co), (0.3, 0.5), 3.0, 1e-10, 1e-12, 0.1)
    assert got == want == [(0.0, 0.3, 0.5)]
    assert (idid, istate) == (INTERRUPTED, STEP_TOO_SMALL)


@pytest.mark.parametrize("nmax, outcome", [(10 ** 9, STIFF), (50, TOO_MANY_STEPS)])
def test_stiff_and_step_limit_outcomes_match_scipy(nmax, outcome):
    def fcn(a, b):
        return -1e5 * a + b, -b
    want, istate = scipy_steps(fcn, (1.0, 1.0), 10.0, 1e-6, 1e-9, nsteps=nmax)
    got, idid = port_steps(fcn, (1.0, 1.0), 10.0, 1e-6, 1e-9, nmax=nmax)
    assert idid == istate == outcome
    assert got == want


def test_resting_flow_matches_scipy():
    # A right-hand side of constant zero: every stage is zero, so both error
    # estimates are exactly zero (Hairer's deno <= 0 branch takes deno = 1),
    # and the starting-step estimate takes its der12 <= 1e-15 branch.
    def fcn(a, b):
        return 0.0, 0.0
    want, istate = scipy_steps(fcn, (0.3, 2.0), 10.0, 1e-10, 1e-12)
    got, idid = port_steps(fcn, (0.3, 2.0), 10.0, 1e-10, 1e-12)
    assert idid == istate == SUCCESS
    assert got == want and len(got) > 2

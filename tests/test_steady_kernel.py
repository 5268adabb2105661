"""The steady-system kernel against independent finite differences.

The Hessian is compared with central differences of the gradient, and the
flow Jacobian built from it, as the implicit-midpoint Newton solve builds
it, with central differences of the flow itself; the kernel runs on numpy
here.  Each closed-form Newton correction is checked against a linear
solve with the finite-difference Jacobian.
"""

import math

import numpy as np
import pytest

from shearwave import SteadyCoeffs, drift, from_mapping, integrate_steady
from shearwave.cli import PRESETS

STEP = 1e-6
PRESET_NAMES = ("fig1", "fig2", "fig4-left")


def _coeffs(name):
    p = from_mapping(PRESETS[name]["params"])
    return SteadyCoeffs.from_params(p).normalized()[0]


def _points(seed, n=40):
    rng = np.random.default_rng(seed)
    return zip(rng.uniform(-math.pi, math.pi, n), rng.uniform(0.01, 3.0, n))


def _central(fn, X, Y):
    """Central-difference Jacobian of a 2-vector function of (X, Y)."""
    dX = (np.array(fn(X + STEP, Y), float) - np.array(fn(X - STEP, Y), float)) / (2 * STEP)
    dY = (np.array(fn(X, Y + STEP), float) - np.array(fn(X, Y - STEP), float)) / (2 * STEP)
    return np.column_stack([dX, dY])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_hessian_matches_central_differences_of_gradient(name):
    co = _coeffs(name)
    for X, Y in _points(seed=sum(map(ord, name))):
        Hxx, Hxy, Hyy = co.hessian(X, Y, math)
        fd = _central(lambda x, y: (co.H_X(x, y, np), co.H_Y(x, y, np)), X, Y)
        scale = abs(co.Ak) * math.cosh(Y) + abs(co.omega) + 1.0
        assert np.allclose(fd, [[Hxx, Hxy], [Hxy, Hyy]], rtol=0.0, atol=1e-7 * scale)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_flow_jacobian_from_hessian_matches_the_flow(name):
    co = _coeffs(name)
    for X, Y in _points(seed=7 + sum(map(ord, name))):
        Hxx, Hxy, Hyy = co.hessian(X, Y, math)
        fd = _central(lambda x, y: (co.H_Y(x, y, np), -co.H_X(x, y, np)), X, Y)
        scale = abs(co.Ak) * math.cosh(Y) + abs(co.omega) + 1.0
        assert np.allclose(fd, [[Hxy, Hyy], [-Hxx, -Hxy]], rtol=0.0, atol=1e-7 * scale)


def test_midpoint_newton_uses_the_flow_jacobian(monkeypatch):
    """Each closed-form Newton correction d solves (I - dt/2*J) d = G, with
    J the central-difference Jacobian of the flow at the midpoint the solve
    was linearized about."""
    co = _coeffs("fig2")
    calls = []
    correction = drift._newton_correction

    def spy(co_, X, Y, dt, gX, gY):
        d = correction(co_, X, Y, dt, gX, gY)
        calls.append((X, Y, dt, (gX, gY), d))
        return d

    monkeypatch.setattr(drift, "_newton_correction", spy)
    dt = 0.01
    integrate_steady(math.pi, 0.3, co, 100 * dt, method="midpoint", dt=dt)
    monkeypatch.undo()

    assert len(calls) >= 100  # at least one Newton correction per step
    for X, Y, step, G, d in calls:
        assert step == dt
        J = _central(lambda x, y: (co.H_Y(x, y, np), -co.H_X(x, y, np)), X, Y)
        want = np.linalg.solve(np.eye(2) - 0.5 * dt * J, G)
        assert np.max(np.abs(np.subtract(d, want))) <= 1e-8 * np.max(np.abs(want))

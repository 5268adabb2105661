"""The steady-system kernel against independent finite differences.

The Hessian is compared with central differences of the public gradient,
and the Jacobian the implicit-midpoint Newton solve uses is compared with
central differences of the flow itself.  The scalar fast path of the
public kernel functions returns the same bits as the 0-d array path.
"""

import math

import numpy as np
import pytest

from shearwave import (DomainError, SteadyCoeffs, from_mapping, hamiltonian,
                       hamiltonian_gradient, integrate_steady, paths, steady_rhs)
from shearwave.cli import PRESETS
from shearwave.params import HYPERBOLIC_ARG_MAX

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
        fd = _central(lambda x, y: hamiltonian_gradient(x, y, co), X, Y)
        scale = abs(co.Ak) * math.cosh(Y) + abs(co.omega) + 1.0
        assert np.allclose(fd, [[Hxx, Hxy], [Hxy, Hyy]], rtol=0.0, atol=1e-7 * scale)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_flow_jacobian_from_hessian_matches_the_flow(name):
    co = _coeffs(name)
    for X, Y in _points(seed=7 + sum(map(ord, name))):
        Hxx, Hxy, Hyy = co.hessian(X, Y, math)
        fd = _central(lambda x, y: steady_rhs(x, y, co), X, Y)
        scale = abs(co.Ak) * math.cosh(Y) + abs(co.omega) + 1.0
        assert np.allclose(fd, [[Hxy, Hyy], [-Hxx, -Hxy]], rtol=0.0, atol=1e-7 * scale)


def test_midpoint_newton_uses_the_flow_jacobian(monkeypatch):
    """Each Newton matrix is I - dt/2 * J, with J the flow Jacobian at the
    midpoint the solve was linearized about."""
    co = _coeffs("fig2")
    mids, matrices = [], []
    rhs, solve = paths._rhs, np.linalg.solve

    def spy_rhs(t, z, co_):
        mids.append(np.array(z, float))
        return rhs(t, z, co_)

    def spy_solve(M, G_):
        matrices.append((mids[-1], np.array(M, float)))
        return solve(M, G_)

    monkeypatch.setattr(paths, "_rhs", spy_rhs)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    dt = 0.01
    integrate_steady(math.pi, 0.3, co, 100 * dt, method="midpoint", dt=dt)
    monkeypatch.undo()

    assert len(matrices) >= 100  # at least one Newton correction per step
    for mid, M in matrices:
        J = (np.eye(2) - M) * (2.0 / dt)
        fd = _central(lambda x, y: steady_rhs(x, y, co), mid[0], mid[1])
        assert np.allclose(J, fd, rtol=0.0, atol=1e-6 * (1.0 + np.max(np.abs(fd))))


def _bits(values):
    return [(type(v), np.float64(v).tobytes()) for v in values]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_scalar_fast_path_returns_the_array_path_bits(name):
    co = _coeffs(name)
    rng = np.random.default_rng(11 + sum(map(ord, name)))
    xs = rng.uniform(-math.pi, math.pi, 300).tolist()
    ys = np.concatenate([rng.uniform(0.0, 3.0, 100), rng.uniform(3.0, 25.0, 100),
                         rng.uniform(25.0, HYPERBOLIC_ARG_MAX, 100)]).tolist()
    for X, Y in zip(xs, ys):
        as_array = (np.asarray(X), np.asarray(Y))
        for kind in ((X, Y), (np.float64(X), np.float64(Y))):
            assert _bits([hamiltonian(*kind, co)]) == \
                _bits([hamiltonian(*as_array, co)])
            assert _bits(hamiltonian_gradient(*kind, co)) == \
                _bits(hamiltonian_gradient(*as_array, co))


@pytest.mark.parametrize("fn", [hamiltonian, hamiltonian_gradient, steady_rhs],
                         ids=lambda fn: fn.__name__)
def test_hyperbolic_guard_at_the_next_float_on_both_paths(fn):
    co = _coeffs("fig2")
    above = math.nextafter(HYPERBOLIC_ARG_MAX, math.inf)
    for wrap in (float, np.asarray):
        fn(wrap(0.5), wrap(HYPERBOLIC_ARG_MAX), co)
        with pytest.raises(DomainError):
            fn(wrap(0.5), wrap(above), co)
    if fn is not steady_rhs:  # steady_rhs refuses every negative Y first
        for wrap in (float, np.asarray):
            with pytest.raises(DomainError):
                fn(wrap(0.5), wrap(-above), co)


def test_steady_rhs_rejects_negative_heights_on_both_paths():
    co = _coeffs("fig1")
    for Y in (-1e-300, -0.5):
        for wrap in (float, np.float64, np.asarray):
            with pytest.raises(DomainError, match="nonnegative"):
                steady_rhs(wrap(1.0), wrap(Y), co)

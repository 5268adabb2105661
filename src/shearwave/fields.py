"""Closed-form evaluation of the linear wave fields and the steady system.

Physical fields (bed-frame normalization s = 0, phase theta = k*x - f*t):

    u = -omega*y + A*cos(theta)*cosh(k*y)
    v =            A*sin(theta)*sinh(k*y)
    P = P0 + g*(h - y) + (A/k)*cos(theta)*((f + k*omega*y)*cosh(k*y)
                                           - omega*sinh(k*y))
    eta = h + a*cos(theta)

with A = a*(f + k*h*omega)/sinh(k*h).  The steady-frame system, whose
scalar kernel is in ``steady``, is evaluated here on arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .params import (NondimParams, WaveParams, _require_bed_frame, _require_finite,
                     check_hyperbolic)
from .steady import SteadyCoeffs

#: Columns of the field-grid CSV export.
GRID_HEADER = "x,y,t,u,v,P,eta_flag"
#: ``eta_flag`` cells, indexed by "y <= eta".
_FLAGS = ("outside", "inside")


def _check_hyperbolic(arg):
    check_hyperbolic(float(np.max(np.abs(arg), initial=0.0)))


def _phase(t, x, params):
    return params.k * np.asarray(x, dtype=float) - params.f * np.asarray(t, dtype=float)


def velocity(t, x, y, params: WaveParams):
    """Velocity field (u, v) at time t and position (x, y).

    Evaluation above the instantaneous surface is permitted (the steady-frame
    analysis extends into the half-plane y >= 0); use :func:`in_fluid` to
    flag points outside the fluid domain.
    """
    _require_bed_frame(params)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("y must be nonnegative (the bed is at y = 0)")
    _check_hyperbolic(params.k * y)
    theta = _phase(t, x, params)
    A = params.A
    ky = params.k * y
    u = -params.omega * y + A * np.cos(theta) * np.cosh(ky)
    v = A * np.sin(theta) * np.sinh(ky)
    return u, v


def pressure(t, x, y, params: WaveParams, P0: float = 0.0):
    """Pressure per unit density (m^2/s^2) at time t and position (x, y)."""
    _require_bed_frame(params)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("y must be nonnegative (the bed is at y = 0)")
    _check_hyperbolic(params.k * y)
    theta = _phase(t, x, params)
    ky = params.k * y
    wave = (params.A / params.k) * np.cos(theta) * (
        (params.f + params.k * params.omega * y) * np.cosh(ky)
        - params.omega * np.sinh(ky))
    return P0 + params.g * (params.h - y) + wave


def surface(t, x, params: WaveParams):
    """Free-surface elevation eta = h + a*cos(k*x - f*t)."""
    return params.h + params.a * np.cos(_phase(t, x, params))


def in_fluid(t, x, y, params: WaveParams):
    """True where 0 <= y <= eta(t, x)."""
    y = np.asarray(y, dtype=float)
    return (y >= 0) & (y <= surface(t, x, params))


def nondim_solution(x, y, nd: NondimParams):
    """Dimensionless perturbation fields (u, v, p) of the steady solution.

    ``x`` is measured in wavelengths, ``y`` in depths; the full horizontal
    velocity is the shear s - omega_nd*y plus epsilon times the returned u.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q = 2.0 * math.pi * nd.delta
    _check_hyperbolic(q * y)
    cos2px = np.cos(2.0 * math.pi * x)
    u = q * nd.C * cos2px * np.cosh(q * y)
    v = 2.0 * math.pi * nd.C * np.sin(2.0 * math.pi * x) * np.sinh(q * y)
    p = nd.C * cos2px * (q * (nd.c_nd - nd.s_nd + nd.omega_nd * y) * np.cosh(q * y)
                         - nd.omega_nd * np.sinh(q * y))
    return u, v, p


# ----------------------------------------------------------------------
# Steady travelling frame
# ----------------------------------------------------------------------

def _steady_args(X, Y):
    # Scalar fast path: the same guard without a 0-d array.  The formulas
    # still run on numpy ufuncs, so the values are the same bits.
    if isinstance(X, float) and isinstance(Y, float):
        check_hyperbolic(Y)
        return X, Y
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    _check_hyperbolic(Y)
    return X, Y


def steady_rhs(X, Y, co: SteadyCoeffs):
    """Right-hand side (dX/dt, dY/dt) = (dH/dY, -dH/dX) of the steady system.

    The bed line Y = 0 is exactly invariant: sinh(0) = 0 makes dY/dt
    vanish identically there in floating point as well.
    """
    Y = np.asarray(Y, dtype=float)
    if np.any(Y < 0):
        raise DomainError("Y must be nonnegative (the bed maps to Y = 0)")
    X, Y = _steady_args(X, Y)
    return co.H_Y(X, Y, np), -co.H_X(X, Y, np)


def hamiltonian(X, Y, co: SteadyCoeffs):
    """Conserved quantity H = Ak*cos(X)*sinh(Y) - omega*Y^2/2 - f*Y."""
    X, Y = _steady_args(X, Y)
    return co.H(X, Y, np)


def hamiltonian_gradient(X, Y, co: SteadyCoeffs):
    """Analytic partials (dH/dX, dH/dY); the flow is (dH/dY, -dH/dX)."""
    X, Y = _steady_args(X, Y)
    return co.H_X(X, Y, np), co.H_Y(X, Y, np)


# ----------------------------------------------------------------------
# Field-identity residuals (the executable form of the governing equations)
# ----------------------------------------------------------------------

class FieldResiduals(NamedTuple):
    div: float              # u_x + v_y, incompressibility
    curl_defect: float      # (v_x - u_y) - omega, constant-vorticity defect
    bed_v: float            # v at y = 0, impermeable bed
    kinematic_defect: float # v - (eta_t + U(h)*eta_x) at y = h
    dynamic_defect: float   # P - P0 - g*(eta - h) at y = h


def field_identity_residuals(t, x, y, params: WaveParams,
                             P0: float = 0.0) -> FieldResiduals:
    """Residuals of the linearized governing equations at (t, x, y).

    Divergence, curl defect and bed velocity vanish identically for any
    parameter set; the kinematic surface defect vanishes by the identity
    A*sinh(k*h) = a*(f + k*h*omega); the dynamic surface defect vanishes
    exactly when the dispersion relation holds, so it is the executable
    statement of that relation's necessity.
    """
    _require_bed_frame(params)
    y = np.asarray(y, dtype=float)
    ky = params.k * y
    _check_hyperbolic(ky)
    A, k, f, omega = params.A, params.k, params.f, params.omega
    a, h = params.a, params.h
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    phase_shape = np.broadcast_shapes(t.shape, x.shape)
    full_shape = np.broadcast_shapes(phase_shape, y.shape)

    # Each expression keeps the operand order of the per-term formulas
    # (noted on the right), with its arithmetic evaluated into reused
    # buffers: the temporaries are as large as the inputs, and allocating
    # one per operation costs more than the arithmetic on 10^4-point
    # reports.  Transcendentals never write over their input.
    tmp = np.multiply(f, t, out=np.empty(phase_shape))
    theta = np.multiply(k, x, out=np.empty(phase_shape))
    np.subtract(theta, tmp, out=theta)                 # _phase(t, x)
    sin_t = np.sin(theta, out=np.empty(phase_shape))
    cos_t = np.cos(theta, out=np.empty(phase_shape))
    cosh_ky, sinh_ky = np.cosh(ky), np.sinh(ky)
    full = np.empty(full_shape)

    np.multiply(-A * k, sin_t, out=tmp)
    np.multiply(tmp, cosh_ky, out=full)                # u_x
    np.multiply(A * k, sin_t, out=tmp)
    div = np.multiply(tmp, cosh_ky, out=np.empty(full_shape))  # v_y
    np.add(full, div, out=div)                         # u_x + v_y

    np.multiply(A * k, cos_t, out=tmp)
    np.multiply(tmp, sinh_ky, out=full)                # v_x
    curl_defect = np.add(-omega, full, out=np.empty(full_shape))  # u_y
    np.subtract(full, curl_defect, out=curl_defect)
    np.subtract(curl_defect, omega, out=curl_defect)   # (v_x - u_y) - omega

    bed_v = np.multiply(A, sin_t, out=np.empty(phase_shape))
    np.multiply(bed_v, math.sinh(0.0), out=bed_v)      # A*sin_t*sinh(0)

    kinematic_defect = np.multiply(A, sin_t, out=np.empty(phase_shape))
    np.multiply(kinematic_defect, math.sinh(k * h),
                out=kinematic_defect)                  # v_surf
    np.multiply(-a * k, sin_t, out=tmp)                # eta_x
    np.multiply(-omega * h, tmp, out=tmp)              # U(h)*eta_x
    eta_t = np.multiply(a * f, sin_t, out=sin_t)
    np.add(eta_t, tmp, out=tmp)
    np.subtract(kinematic_defect, tmp, out=kinematic_defect)

    # pressure(t, x, h) and surface(t, x) on the shared cos(theta); the
    # hydrostatic term g*(h - y) vanishes at y = h.
    kh = k * h
    dynamic_defect = np.multiply(A / k, cos_t, out=np.empty(phase_shape))
    np.multiply(dynamic_defect,
                (f + k * omega * h) * np.cosh(kh) - omega * np.sinh(kh),
                out=dynamic_defect)
    np.add(P0, dynamic_defect, out=dynamic_defect)     # P_surf
    np.subtract(dynamic_defect, P0, out=dynamic_defect)
    np.multiply(a, cos_t, out=cos_t)
    eta = np.add(h, cos_t, out=cos_t)                  # h + a*cos_t
    np.subtract(eta, h, out=eta)
    np.multiply(params.g, eta, out=eta)
    np.subtract(dynamic_defect, eta, out=dynamic_defect)

    # 0-d results come back as numpy scalars, as plain arithmetic gives.
    return FieldResiduals(*(r if r.ndim else r[()] for r in (
        div, curl_defect, bed_v, kinematic_defect, dynamic_defect)))


# ----------------------------------------------------------------------
# Grid export
# ----------------------------------------------------------------------

def _grid_axis(name, values):
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {axis.shape}")
    bad = axis[~np.isfinite(axis)]
    if bad.size:
        raise DomainError(f"{name} must be finite, got {float(bad[0])!r}")
    return axis


def _grid_lines(params: WaveParams, t, x_grid, y_grid, P0):
    """Check the inputs, then return an iterator of grid lines: one text per
    x value, its rows each ending in a newline."""
    _require_bed_frame(params)
    _require_finite(t=t, P0=P0)
    x, y = _grid_axis("x_grid", x_grid), _grid_axis("y_grid", y_grid)
    if np.any(y < 0):
        raise DomainError("y must be nonnegative (the bed is at y = 0)")
    ky = params.k * y
    _check_hyperbolic(ky)
    A, k, f, omega = params.A, params.k, params.f, params.omega
    theta = _phase(t, x, params)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cosh_ky, sinh_ky = np.cosh(ky), np.sinh(ky)
    shear = -omega * y
    p_shape = (f + k * omega * y) * cosh_ky - omega * sinh_ky
    hydrostatic = P0 + params.g * (params.h - y)
    # One row per y, its y and t cells already in place: each line is one
    # % operation over the x cell and each row's u, v, P and flag.
    template = "".join(f"%s,{yv:.17g},{t:.17g},%.17g,%.17g,%.17g,%s\n"
                       for yv in y.tolist())
    ny = len(y)

    def lines():
        cells = [None] * (5 * ny)
        for xv, ct, st in zip(x.tolist(), cos_t.tolist(), sin_t.tolist()):
            cells[0::5] = [f"{xv:.17g}"] * ny
            cells[1::5] = (shear + A * ct * cosh_ky).tolist()
            cells[2::5] = (A * st * sinh_ky).tolist()
            cells[3::5] = (hydrostatic + (A / k) * ct * p_shape).tolist()
            cells[4::5] = [_FLAGS[inside] for inside in
                           (y <= params.h + params.a * ct).tolist()]
            yield template % tuple(cells)

    return lines()


def field_grid_rows(params: WaveParams, t: float, x_grid, y_grid,
                    P0: float = 0.0):
    """Yield CSV rows (header first) of the fields on an x (outer) by y
    (inner) grid, floats at 17 significant digits.

    The inputs are checked before any row is yielded: the axes must be
    one-dimensional and, like t and P0, finite.  The y factors are
    computed once per grid and the x factors once per grid line, with the
    operand grouping of :func:`velocity`, :func:`pressure` and
    :func:`in_fluid`, so every value equals the per-point one bit for bit.
    """
    lines = _grid_lines(params, t, x_grid, y_grid, P0)
    yield GRID_HEADER
    for text in lines:
        yield from text.splitlines()


def write_field_grid(path, params: WaveParams, t: float, x_grid, y_grid,
                     P0: float = 0.0):
    """Write the field grid CSV to ``path``, one write per grid line."""
    lines = _grid_lines(params, t, x_grid, y_grid, P0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(GRID_HEADER + "\n")
        fh.writelines(lines)

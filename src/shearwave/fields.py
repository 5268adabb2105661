"""Closed-form evaluation of the linear wave fields on numpy arrays.

Physical fields (bed-frame normalization s = 0, phase theta = k*x - f*t):

    u = -omega*y + A*cos(theta)*cosh(k*y)
    v =            A*sin(theta)*sinh(k*y)
    P = P0 + g*(h - y) + (A/k)*cos(theta)*((f + k*omega*y)*cosh(k*y)
                                           - omega*sinh(k*y))
    eta = h + a*cos(theta)

with A = a*(f + k*h*omega)/sinh(k*h).  This is the one module that
evaluates on numpy; the steady-frame system is written once, in
``steady.SteadyCoeffs``, and the package evaluates it on ``math``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .params import WaveParams, _require_bed_frame, _require_finite, check_hyperbolic

#: Columns of the field-grid CSV export.
GRID_HEADER = "x,y,t,u,v,P,eta_flag"
#: ``eta_flag`` cells, indexed by "y <= eta".
_FLAGS = ("outside", "inside")


def _check_hyperbolic(arg):
    check_hyperbolic(float(np.max(np.abs(arg), initial=0.0)))


def _heights(y, params):
    """``y`` as an array and ``k*y``, after the y >= 0 and hyperbolic checks."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("y must be nonnegative (the bed is at y = 0)")
    ky = params.k * y
    _check_hyperbolic(ky)
    return y, ky


def _phase(t, x, params):
    return params.k * np.asarray(x, dtype=float) - params.f * np.asarray(t, dtype=float)


def velocity(t, x, y, params: WaveParams):
    """Velocity field (u, v) at time t and position (x, y).

    Evaluation above the instantaneous surface is permitted (the steady-frame
    analysis extends into the half-plane y >= 0); use :func:`in_fluid` to
    flag points outside the fluid domain.
    """
    _require_bed_frame(params)
    y, ky = _heights(y, params)
    theta = _phase(t, x, params)
    A = params.A
    u = -params.omega * y + A * np.cos(theta) * np.cosh(ky)
    v = A * np.sin(theta) * np.sinh(ky)
    return u, v


def pressure(t, x, y, params: WaveParams, P0: float = 0.0):
    """Pressure per unit density (m^2/s^2) at time t and position (x, y)."""
    _require_bed_frame(params)
    y, ky = _heights(y, params)
    theta = _phase(t, x, params)
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
    a, h, g = params.a, params.h, params.g
    theta = _phase(t, x, params)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    cosh_ky = np.cosh(ky)
    v_x = A * k * cos_t * np.sinh(ky)
    kh = k * h
    # Each residual keeps the operand order of the per-term formulas, which
    # fixes its bits; at y = h the hydrostatic term of pressure() vanishes.
    P_surf = P0 + (A / k) * cos_t * (
        (f + k * omega * h) * np.cosh(kh) - omega * np.sinh(kh))
    return FieldResiduals(
        -A * k * sin_t * cosh_ky + A * k * sin_t * cosh_ky,    # u_x + v_y
        (v_x - (-omega + v_x)) - omega,                         # (v_x - u_y) - omega
        A * sin_t * math.sinh(0.0),                             # v at y = 0
        # v(h) - (eta_t + U(h)*eta_x), U(h) = -omega*h
        A * sin_t * math.sinh(kh) - (a * f * sin_t + -omega * h * (-a * k * sin_t)),
        P_surf - P0 - g * ((h + a * cos_t) - h))                # P(h) - P0 - g*(eta - h)


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
    x = _grid_axis("x_grid", x_grid)
    y, ky = _heights(_grid_axis("y_grid", y_grid), params)
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

"""Closed-form evaluation of the linear wave fields on numpy arrays.

Physical fields (bed-frame normalization s = 0, phase theta = k*x - f*t):

    u = -omega*y + A*cos(theta)*cosh(k*y)
    v =            A*sin(theta)*sinh(k*y)
    P = g*(h - y) + (A/k)*cos(theta)*((f + k*omega*y)*cosh(k*y)
                                      - omega*sinh(k*y))
    eta = h + a*cos(theta)

with A = a*(f + k*h*omega)/sinh(k*h) and P = 0 on y = h at rest.  This is
the one module that evaluates on numpy; the steady-frame system is written
once, in ``steady.SteadyCoeffs``, and the package evaluates it on ``math``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import params as wp
from .errors import DomainError
from .params import WaveParams, _require_finite, check_hyperbolic

#: Columns of the field-grid CSV export.
GRID_HEADER = "x,y,t,u,v,P,eta_flag"
#: ``eta_flag`` cells, indexed by "y <= eta".
_FLAGS = ("outside", "inside")
#: Points of one block of whole grid lines evaluated by one call each of
#: velocity, pressure and in_fluid (one line if it is longer).
_GRID_BLOCK = 4096


def _heights(y, params):
    """``y`` as an array and ``k*y``, after the y >= 0 (no NaN) and hyperbolic checks."""
    y = np.asarray(y, dtype=float)
    if not np.all(y >= 0):
        raise DomainError("y must be nonnegative (the bed is at y = 0)")
    ky = params.k * y
    check_hyperbolic(float(np.max(np.abs(ky), initial=0.0)))
    return y, ky


def _phase(t, x, params):
    return params.k * np.asarray(x, dtype=float) - params.f * np.asarray(t, dtype=float)


def velocity(t, x, y, params: WaveParams):
    """Velocity field (u, v) at time t and position (x, y).

    Evaluation above the instantaneous surface is permitted (the steady-frame
    analysis extends into the half-plane y >= 0); use :func:`in_fluid` to
    flag points outside the fluid domain.
    """
    y, ky = _heights(y, params)
    theta = _phase(t, x, params)
    A = params.A
    u = -params.omega * y + A * np.cos(theta) * np.cosh(ky)
    v = A * np.sin(theta) * np.sinh(ky)
    return u, v


def pressure(t, x, y, params: WaveParams):
    """Pressure per unit density (m^2/s^2) at (t, x, y), zero on y = h at rest."""
    y, ky = _heights(y, params)
    theta = _phase(t, x, params)
    wave = (params.A / params.k) * np.cos(theta) * (
        (params.f + params.k * params.omega * y) * np.cosh(ky)
        - params.omega * np.sinh(ky))
    return params.g * (params.h - y) + wave


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
    dynamic_defect: float   # P - g*(eta - h) at y = h


def field_identity_residuals(t, x, y, params: WaveParams) -> FieldResiduals:
    """Residuals of the linearized governing equations at (t, x, y).

    Divergence, curl defect and bed velocity vanish identically for any
    parameter set; the kinematic surface defect vanishes by the identity
    A*sinh(k*h) = a*(f + k*h*omega); the dynamic surface defect vanishes
    exactly when the dispersion relation holds, so it is the executable
    statement of that relation's necessity.  The expressions are
    :func:`params.field_identities`, evaluated here on numpy.  A point
    below the bed is refused, as by :func:`velocity` and :func:`pressure`.
    """
    y, _ = _heights(y, params)
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    return FieldResiduals(*wp.field_identities(params, np)(t, x, y))


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


def _grid_lines(params: WaveParams, t, x_grid, y_grid):
    """Check the inputs, then return an iterator of grid lines: one text per
    x value, its rows each ending in a newline."""
    _require_finite(t=t)
    x = _grid_axis("x_grid", x_grid)
    y, _ = _heights(_grid_axis("y_grid", y_grid), params)
    # One row per y, its y and t cells already in place: each line is one
    # % operation over the x cell and each row's u, v, P and flag.
    template = "".join(f"%s,{yv:.17g},{t:.17g},%.17g,%.17g,%.17g,%s\n"
                       for yv in y.tolist())
    ny = len(y)
    block = max(1, _GRID_BLOCK // max(ny, 1))

    def lines():
        cells = [None] * (5 * ny)
        for start in range(0, len(x), block):
            xb = x[start:start + block, None]
            u, v = velocity(t, xb, y, params)
            P = pressure(t, xb, y, params)
            inside = in_fluid(t, xb, y, params)
            for xv, ui, vi, Pi, fi in zip(xb[:, 0].tolist(), u.tolist(), v.tolist(),
                                          P.tolist(), inside.tolist()):
                cells[0::5] = [f"{xv:.17g}"] * ny
                cells[1::5], cells[2::5], cells[3::5] = ui, vi, Pi
                cells[4::5] = [_FLAGS[flag] for flag in fi]
                yield template % tuple(cells)

    return lines()


def field_grid_rows(params: WaveParams, t: float, x_grid, y_grid):
    """Yield CSV rows (header first) of the fields on an x (outer) by y
    (inner) grid, floats at 17 significant digits.

    The inputs are checked before any row is yielded: the axes must be
    one-dimensional and, like t, finite.  The values come from
    :func:`velocity`, :func:`pressure` and :func:`in_fluid`, one call each
    per block of whole grid lines; the block, about ``_GRID_BLOCK``
    points, bounds the memory.
    """
    lines = _grid_lines(params, t, x_grid, y_grid)
    yield GRID_HEADER
    for text in lines:
        yield from text.splitlines()


def write_field_grid(path, params: WaveParams, t: float, x_grid, y_grid):
    """Write the field grid CSV to ``path``, one write per grid line."""
    lines = _grid_lines(params, t, x_grid, y_grid)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(GRID_HEADER + "\n")
        fh.writelines(lines)

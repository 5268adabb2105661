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
#: ``eta_flag`` cells with their newline, NUL-padded, one column each,
#: indexed by "y <= eta".
_FLAGS = np.frombuffer(b"outside\ninside\n\0", np.uint8).reshape(2, 8).T
#: Points of one block of whole grid lines evaluated by one call each of
#: velocity, pressure and in_fluid (one line if it is longer).
_GRID_BLOCK = 4096


def _heights(y, params):
    """``y`` as an array, after the y >= 0 (no NaN) and hyperbolic checks.

    Once y >= 0 holds, ``k*max(y)`` is ``max|k*y|``: rounding is monotone,
    so no ``k*y`` array is built to check it."""
    y = np.asarray(y, dtype=float)
    if not np.all(y >= 0):
        raise DomainError("y must be nonnegative (the bed is at y = 0)")
    check_hyperbolic(params.k * float(np.max(y, initial=0.0)))
    return y


def _phase(t, x, params):
    return params.k * np.asarray(x, dtype=float) - params.f * np.asarray(t, dtype=float)


def velocity(t, x, y, params: WaveParams):
    """Velocity field (u, v) at time t and position (x, y).

    Evaluation above the instantaneous surface is permitted (the steady-frame
    analysis extends into the half-plane y >= 0); use :func:`in_fluid` to
    flag points outside the fluid domain.
    """
    y = _heights(y, params)
    ky = params.k * y
    theta = _phase(t, x, params)
    A = params.A
    u = -params.omega * y + A * np.cos(theta) * np.cosh(ky)
    v = A * np.sin(theta) * np.sinh(ky)
    return u, v


def pressure(t, x, y, params: WaveParams):
    """Pressure per unit density (m^2/s^2) at (t, x, y), zero on y = h at rest."""
    y = _heights(y, params)
    ky = params.k * y
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
    :func:`params.field_identities`, evaluated here on numpy, where each
    residual is one fresh array finished in place.  A point below the bed,
    or a ``k*max(y)`` past the hyperbolic guard, is refused, as by
    :func:`velocity` and :func:`pressure`.
    """
    y = _heights(y, params)
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    return FieldResiduals(*wp.field_identities(params, np)(t, x, y))


# ----------------------------------------------------------------------
# 17-digit cells
# ----------------------------------------------------------------------
#
# '%.17g' % v prints N = round-half-even(|v| * 10**p), p = 16 - E, the 17
# significant digits of a |v| in [10**E, 10**(E + 1)).  For E in [-6, 16]
# they follow from IEEE arithmetic alone.  10**p = 5**p * 2**p with
# 5**p < 2**53 is an exact double for p <= 22, so Dekker's error-free
# product (Numer. Math. 18, 1971) gives |v| * 10**p = H + err exactly, with
# H = fl(|v| * 10**p).  H >= 10**16 > 2**53 is an even integer, so
# N = H + rint(err): rint's ties-to-even on err is N's on H + err.

#: Bytes of one cell: a sign, five of prefix ("0.000"), 17 digits and a
#: point, four of suffix ("e-05"), NUL where unused.  '%.17g' of any double
#: has at most 24 characters.
_CELL = 28
#: 10**p = 10**(16 - E), exact, indexed by E + 6, and its Dekker split.
_POW10 = 10.0 ** np.arange(22, -1, -1)
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: The four ASCII digits of 0..9999, one word each.
_WORDS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                  axis=-1).view(np.uint32).ravel()
#: Per E + 6: the five prefix and four suffix bytes of '%.17g', and the
#: index of the digit the point precedes (17: the point is in the prefix).
_AFFIX = np.frombuffer(b"".join(
    (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").ljust(5, b"\0")
    + (b"e-0%d" % -e if e < -4 else b"").ljust(4, b"\0") for e in range(-6, 17)),
    np.uint8).reshape(23, 9)
_POINT = np.array([1, 1, 17, 17, 17, 17, *range(1, 18)], np.uint8)
_ROW = np.arange(18, dtype=np.uint8)[:, None]


def _digits(values):
    """``(E, N, exact)`` of the float64 ``values``: the decimal exponent E,
    clipped to [-6, 16], N = |v| * 10**(16 - E) rounded half to even, and
    where N is the 17 significant digits that '%.17g' prints.

    ``exact`` is false for 0, inf, NaN and |v| outside [1e-6, 1e17), and
    where the ``log10`` estimate of E was one off: |v| * 10**(16 - E)
    below 10**16, or N at 10**17.
    """
    a = np.abs(values)
    exact = (a >= 1e-6) & (a < 1e17)                    # no 0, inf or NaN
    a[~exact] = 1.0
    E = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    row = E + 6
    H = a * np.take(_POW10, row)
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    b_hi, b_lo = np.take(_POW10_HI, row), np.take(_POW10_LO, row)
    err = ((a_hi * b_hi - H) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    N = H.astype(np.int64) + np.rint(err).astype(np.int64)
    exact &= ((H > 1e16) | ((H == 1e16) & (err >= 0))) & (N < 10**17)
    return E, N, exact


def _cells(values):
    """``'%.17g' % v`` of each of the float64 ``values`` as a ``(_CELL, n)``
    uint8 array, one NUL-padded column per value."""
    values = np.ravel(values)
    n = values.size
    E, N, exact = _digits(values)
    N[~exact] = 10**16
    # The first digit, then four groups of four.
    top = N // 10**8
    first = top // 10**8
    quads = np.empty((4, n), np.uint32)
    quads[1] = top - first * 10**8
    quads[3] = N - top * 10**8
    quads[0::2] = quads[1::2] // 10**4
    quads[1::2] -= quads[0::2] * 10**4
    digits = np.empty((17, n), np.uint8)
    digits[0] = first + 48
    digits[1:].reshape(4, 4, n)[...] = np.take(_WORDS, quads).view(np.uint8).reshape(
        4, n, 4).transpose(0, 2, 1)
    # Keep the digits before the point and those up to the last nonzero one.
    row = E + 6
    keep = digits != 48
    for i in range(15, -1, -1):
        keep[i] |= keep[i + 1]
    keep |= _ROW[:17] + 5 < row.astype(np.uint8)
    digits *= keep
    cells = np.empty((_CELL, n), np.uint8)
    cells[0] = (values < 0) * np.uint8(45)               # '-'
    affix = np.take(_AFFIX, row, axis=0)
    cells[1:6] = affix[:, :5].T
    cells[24:] = affix[:, 5:].T
    # The digits, and the point before digit number ``point`` if that one is kept.
    area = cells[6:24]
    before = _ROW[:17] < np.take(_POINT, row)
    np.multiply(digits, before, out=area[:17])
    area[17] = 0
    area[1:] |= digits * ~before
    area[1:17] |= (before[:-1] ^ before[1:]) * keep[1:] * np.uint8(46)
    slow = np.flatnonzero(~exact)
    if slow.size:
        text = np.array(["%.17g" % v for v in values[slow].tolist()], f"S{_CELL}")
        cells[:, slow] = text.view(np.uint8).reshape(-1, _CELL).T
    return cells


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


def _ascii(texts):
    """The strings ``texts`` as a NUL-padded uint8 matrix, one column each."""
    table = np.array(texts, dtype=bytes)
    return table.view(np.uint8).reshape(len(texts), table.itemsize).T


def _grid_lines(params: WaveParams, t, x_grid, y_grid):
    """Check the inputs, then return an iterator of ASCII byte strings: one
    per block of whole grid lines, its rows each ending in a newline."""
    _require_finite(t=t)
    x = _grid_axis("x_grid", x_grid)
    y = _heights(_grid_axis("y_grid", y_grid), params)
    t_cell = f",{t:.17g},"
    heights = _ascii([f"{yv:.17g}{t_cell}" for yv in y.tolist()])
    block = max(1, _GRID_BLOCK // max(len(y), 1))
    return (_block_rows(params, t, x[start:start + block], y, heights).translate(None, b"\0")
            for start in range(0, len(x), block))


def _block_rows(params, t, xb, y, heights):
    """The rows of the grid lines at ``xb`` as one NUL-padded byte string.

    The rows are built as a byte matrix with a column per row: the x cell,
    the y and t cells (``heights``), the u, v and P cells each with its
    comma, and the flag.  Dropping the NULs leaves the text.
    """
    xb = xb[:, None]
    u, v = velocity(t, xb, y, params)
    P = pressure(t, xb, y, params)
    inside = in_fluid(t, xb, y, params)
    nb, ny = len(xb), len(y)
    cells = _cells(np.stack([u, v, P])).reshape(_CELL, 3, nb, ny)
    lead = _ascii([f"{xv:.17g}," for xv in xb[:, 0].tolist()])
    at = len(lead) + len(heights)
    rows = np.empty((at + 3 * (_CELL + 1) + len(_FLAGS), nb, ny), np.uint8)
    rows[:len(lead)] = lead[:, :, None]
    rows[len(lead):at] = heights[:, None]
    values = rows[at:at + 3 * (_CELL + 1)].reshape(3, _CELL + 1, nb, ny)
    values[:, :_CELL] = cells.transpose(1, 0, 2, 3)
    values[:, _CELL] = 44                                      # ','
    rows[at + 3 * (_CELL + 1):] = np.take(_FLAGS, inside.astype(np.intp), axis=1)
    return rows.reshape(len(rows), -1).T.tobytes()


def field_grid_rows(params: WaveParams, t: float, x_grid, y_grid):
    """Yield CSV rows (header first) of the fields on an x (outer) by y
    (inner) grid, floats at 17 significant digits.

    The inputs are checked before any row is yielded: the axes must be
    one-dimensional and, like t, finite.  The values come from
    :func:`velocity`, :func:`pressure` and :func:`in_fluid`, one call each
    per block of whole grid lines; the block, about ``_GRID_BLOCK``
    points, bounds the memory.  The u, v and P cells are ``'%.17g'`` byte
    for byte, their digits from :func:`_digits` where it is exact.
    """
    lines = _grid_lines(params, t, x_grid, y_grid)
    yield GRID_HEADER
    for text in lines:
        yield from text.decode("ascii").splitlines()


def write_field_grid(path, params: WaveParams, t: float, x_grid, y_grid):
    """Write the field grid CSV to ``path``, one write per block of grid lines."""
    lines = _grid_lines(params, t, x_grid, y_grid)
    with open(path, "wb") as fh:
        fh.write(GRID_HEADER.encode("ascii") + b"\n")
        fh.writelines(lines)

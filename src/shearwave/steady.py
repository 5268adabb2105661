"""The steady frame X = k*x - f*t, Y = k*y on scalars: particles follow
dX/dt = dH/dY, dY/dt = -dH/dX with H = Ak*cos(X)*sinh(Y) - omega*Y^2/2 - f*Y.
The kernel, critical points and the vorticity census run here, and transit
and drift in ``drift``, on ``math`` without numpy; ``fields`` and
``portrait`` re-export these names next to their array code.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

from .errors import DomainError, NumericsError, ShearwaveError, UnsupportedConfig
from .params import (Y_SEARCH_MAX, WaveParams, _require_bed_frame, branching_discriminant,
                     check_hyperbolic)

#: Brent tolerance of the isocline roots.
ROOT_XTOL = 1e-14


#: ``math`` with the hyperbolic guard, for ``co.H(X, Y, GUARDED)`` and kin.
GUARDED = SimpleNamespace(cos=math.cos, sin=math.sin,
                          cosh=lambda y: math.cosh(check_hyperbolic(y)),
                          sinh=lambda y: math.sinh(check_hyperbolic(y)))


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.linspace(start, stop, num)`` as a list, bit for bit:
    i*step + start, with the last value set to ``stop``."""
    if num < 2:
        return [float(start)] * num
    step = (stop - start) / (num - 1)
    values = [i * step + start for i in range(num)]
    values[-1] = float(stop)
    return values


class SteadyCoeffs:
    """Coefficients of the steady-frame particle system.

    ``Ak`` may be negative (strong counter-current); portrait and path
    analysis normalize it positive via the half-period shift X -> X + pi
    and record the shift.

    Immutable, with ``__slots__`` rather than a named tuple: the kernel
    below reads the fields on every evaluation, and CPython specializes
    slot reads but not named-tuple field reads, which made the drift
    profile and the portrait 5-15% slower.
    """

    __slots__ = ("Ak", "omega", "f", "k")

    def __init__(self, Ak: float, omega: float, f: float, k: float):
        for name, value in zip(self.__slots__, (Ak, omega, f, k)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to {name!r}: SteadyCoeffs is immutable")

    __delattr__ = __setattr__

    def _astuple(self) -> tuple[float, float, float, float]:
        return self.Ak, self.omega, self.f, self.k

    def __eq__(self, other):
        return type(other) is type(self) and self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __reduce__(self):
        return type(self), self._astuple()

    def __repr__(self):
        return "SteadyCoeffs(Ak={!r}, omega={!r}, f={!r}, k={!r})".format(*self._astuple())

    @classmethod
    def from_params(cls, params: WaveParams) -> "SteadyCoeffs":
        _require_bed_frame(params)
        return cls(Ak=params.A * params.k, omega=params.omega,
                   f=params.f, k=params.k)

    def normalized(self) -> tuple["SteadyCoeffs", bool]:
        """Return coefficients with Ak >= 0 plus whether X was shifted by pi."""
        if self.Ak < 0:
            return SteadyCoeffs(-self.Ak, self.omega, self.f, self.k), True
        return self, False

    # The steady system, written once.  ``m`` is the arithmetic module:
    # ``steady`` and ``drift`` pass ``math`` (or GUARDED), ``fields``,
    # ``portrait`` and ``paths`` pass numpy.  The two differ in the last ulp
    # of cosh/sinh, so a value's bits follow the module that computed it.

    def H(self, X, Y, m):
        """H = Ak*cos(X)*sinh(Y) - omega*Y^2/2 - f*Y, unguarded."""
        return self.Ak * m.cos(X) * m.sinh(Y) - 0.5 * self.omega * Y * Y - self.f * Y

    def H_X(self, X, Y, m):
        """dH/dX = -dY/dt, unguarded."""
        return -self.Ak * m.sin(X) * m.sinh(Y)

    def H_Y(self, X, Y, m):
        """dH/dY = dX/dt (phi, whose roots are the X-nullcline), unguarded."""
        return self.Ak * m.cos(X) * m.cosh(Y) - self.omega * Y - self.f

    def hessian(self, X, Y, m):
        """(Hxx, Hxy, Hyy); the flow Jacobian is [[Hxy, Hyy], [-Hxx, -Hxy]]."""
        c = self.Ak * m.cos(X) * m.sinh(Y)
        return -c, -self.Ak * m.sin(X) * m.cosh(Y), c - self.omega


def bracketed_root(fn, lo: float, hi: float, xtol: float, maxiter: int = 200,
                   what: str = "root") -> float:
    """Brent's root of ``fn`` on [lo, hi].

    A bracket without a sign change, or a solve that does not converge,
    raises NumericsError carrying the bracket and both end values; errors
    raised by ``fn`` itself pass through unchanged.
    """
    try:
        return _brentq(fn, lo, hi, xtol, maxiter)
    except ShearwaveError:
        raise
    except (ValueError, RuntimeError) as exc:
        flo, fhi = fn(lo), fn(hi)
        raise NumericsError(
            f"{what}: no root found on [{lo:.6g}, {hi:.6g}] "
            f"(end values {flo:.6g}, {fhi:.6g})",
            diagnostics={"bracket": (lo, hi), "values": (flo, fhi)}) from exc


#: Relative tolerance of the Brent iteration, SciPy's smallest allowed value.
_BRENT_RTOL = 4.0 * math.ulp(1.0)


def _brentq(fn, a: float, b: float, xtol: float, maxiter: int) -> float:
    """Brent's method (Brent 1973), ported line for line from SciPy's
    ``brentq.c`` so every iterate, and so the root, is SciPy's.

    A NaN function value or a bracket without a sign change raises
    ValueError; ``maxiter`` iterations without convergence raise
    RuntimeError.  Signs compare like C's ``signbit``, so -0.0 counts as
    negative.
    """
    def f(x):
        fx = float(fn(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    def negative(v):
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            # On tiny function values den underflows to 0; C's quotient is
            # then inf or nan, which fails the step test below and bisects.
            stry = num / den if den else math.inf
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")


def _polish_root(y, lo, hi, fn, dfn, iters=3):
    # A few guarded Newton steps after bracketing; keeps the residual at
    # rounding level even where the bracketed solve stops at xtol.
    for _ in range(iters):
        d = dfn(y)
        if d == 0.0:
            break
        y_next = y - fn(y) / d
        if not lo <= y_next <= hi:
            break
        y = y_next
    return y


def isocline_roots(X: float, co: SteadyCoeffs, y_cap: float) -> list[float]:
    """All Y in (0, y_cap] with phi(Y; X) = 0, ascending.

    phi is convex in Y where cos(X) > 0 and concave where cos(X) < 0, so it
    has at most two roots; brackets come from the interior stationary point
    rather than a fixed grid, which cannot miss a near-tangent pair.
    """
    b = co.Ak * math.cos(X)
    omega, f = co.omega, co.f

    def fn(y):
        return co.H_Y(X, y, math)

    def dfn(y):
        return co.hessian(X, y, math)[2]

    if b == 0.0:
        if omega < 0:
            y0 = -f / omega
            return [y0] if 0.0 < y0 <= y_cap else []
        return []
    if b < 0.0 and omega >= 0:
        return []  # phi strictly decreasing from phi(0) < 0

    breaks = [0.0]
    ratio = omega / b
    if ratio > 0:  # interior stationary point of phi
        ym = math.asinh(ratio)
        if 0.0 < ym < y_cap:
            breaks.append(ym)
    breaks.append(y_cap)

    # Concave case: report an (at most) double root at the maximum as a
    # single tangency root instead of forcing it into the 0/2-root bins.
    if b < 0.0 and len(breaks) == 3:
        vmax = fn(breaks[1])
        scale = abs(b) * math.cosh(breaks[1]) + abs(omega) * breaks[1] + abs(f)
        if abs(vmax) <= 1e-13 * max(scale, 1.0):
            return [breaks[1]]

    roots = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        flo, fhi = fn(lo), fn(hi)
        if flo == 0.0 and lo > 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0.0:
            y = bracketed_root(fn, lo, hi, ROOT_XTOL, what=f"isocline at X = {X:.6g}")
            roots.append(_polish_root(y, lo, hi, fn, dfn))
        elif fhi == 0.0 and hi < y_cap:
            roots.append(hi)
    if fn(y_cap) == 0.0:
        roots.append(y_cap)
    return sorted(set(roots))


class CriticalPoint(NamedTuple):
    """A stationary point of the steady flow with its Morse classification."""

    X: float
    Y: float
    kind: str                       # "saddle" | "center"
    hessian_eigs: tuple[float, float]
    H_value: float
    label: str = ""


def hessian_eigenvalues(Hxx: float, Hxy: float, Hyy: float) -> tuple[float, float]:
    """Eigenvalues of the symmetric [[Hxx, Hxy], [Hxy, Hyy]], ascending: the
    larger in magnitude is m +- hypot((Hxx - Hyy)/2, Hxy), m the mean, and
    the other the determinant over it, free of the cancellation in m -+ hypot."""
    m = 0.5 * (Hxx + Hyy)
    r = math.hypot(0.5 * (Hxx - Hyy), Hxy)
    big = m + r if m >= 0.0 else m - r
    small = (Hxx * Hyy - Hxy * Hxy) / big if big else 0.0
    return (small, big) if small <= big else (big, small)


def classify_critical_point(X: float, Y: float, co: SteadyCoeffs):
    """Saddle/center verdict plus the Hamiltonian Hessian eigenvalues.

    At X in {0, pi} the Hessian is diagonal and the verdict reduces to the
    sign of the slope of phi at the root; the general symmetric eigenvalue
    route below covers both and is checked against that reduction in tests.
    """
    if Y < 0:
        raise DomainError("Y must be nonnegative (the bed maps to Y = 0)")
    dX, dY = co.H_Y(X, Y, GUARDED), -co.H_X(X, Y, GUARDED)
    scale = abs(co.Ak) * math.cosh(Y) + abs(co.omega) * Y + abs(co.f) + 1.0
    if math.hypot(dX, dY) > 1e-8 * scale:
        raise DomainError(
            f"({X!r}, {Y!r}) is not a critical point: rhs = ({dX:.3e}, {dY:.3e})")
    Hxx, Hxy, Hyy = co.hessian(X, Y, math)
    eigs = hessian_eigenvalues(Hxx, Hxy, Hyy)
    det = Hxx * Hyy - Hxy * Hxy
    frob = abs(Hxx) + 2.0 * abs(Hxy) + abs(Hyy)
    if abs(det) <= 1e-14 * max(frob, 1.0) ** 2:
        raise NumericsError("degenerate Hessian at a critical point",
                            diagnostics={"X": X, "Y": Y, "eigs": eigs})
    return ("saddle" if det < 0 else "center"), eigs


def find_critical_points(co: SteadyCoeffs,
                         y_cap: float = Y_SEARCH_MAX) -> list[CriticalPoint]:
    """All stationary points in the canonical strip (X in {0, pi}, 0 < Y <= y_cap).

    Coefficients must be normalized (Ak >= 0).  Ak = 0 is the wave-free
    shear flow: its stationary set is a horizontal line, not a Morse
    point, so an empty list is returned.
    """
    if co.Ak < 0:
        raise UnsupportedConfig(
            "coefficients must be normalized to Ak >= 0 (X -> X + pi shift)")
    if co.Ak == 0.0:
        return []
    points = []
    for X, labels in ((0.0, ("P0", "P0b")), (math.pi, ("P1", "P2"))):
        roots = isocline_roots(X, co, y_cap)
        for idx, Y in enumerate(roots):
            kind, eigs = classify_critical_point(X, Y, co)
            label = labels[idx] if idx < len(labels) else f"X{X:.0f}r{idx}"
            points.append(CriticalPoint(X=X, Y=Y, kind=kind, hessian_eigs=eigs,
                                        H_value=co.H(X, Y, GUARDED), label=label))
    return points


# ----------------------------------------------------------------------
# Vorticity bifurcation scan
# ----------------------------------------------------------------------

class ScanRow(NamedTuple):
    omega: float
    count: int
    kinds: tuple[str, ...]
    status: str = "regular"  # "degenerate" flags an isocline tangency


class BifurcationScan(NamedTuple):
    rows: list[ScanRow]
    omega_star: float | None   # vorticity where the count jumps 1 -> 3
    branch: str


def bifurcation_scan(g: float, h: float, k: float, a: float,
                     omega_start: float, omega_stop: float, steps: int,
                     branch: str = "plus", s: float = 0.0,
                     y_cap: float = Y_SEARCH_MAX) -> BifurcationScan:
    """Critical-point census along a vorticity sweep at fixed (g, h, k, a).

    The wave speed is re-solved per vorticity on the chosen branch.  When
    the census jumps between one and three points across the sweep, the
    transition vorticity is refined by a bracketed solve on the branching
    discriminant evaluated at the actual wave coefficient.
    """
    if steps < 2:
        raise DomainError("steps must be at least 2")

    def coeffs(omega: float) -> SteadyCoeffs:
        p = WaveParams.solve(g, h, k, omega, a=a, s=s, branch=branch)
        return SteadyCoeffs.from_params(p).normalized()[0]

    rows = []
    for omega in linspace(omega_start, omega_stop, steps):
        pts = find_critical_points(coeffs(omega), y_cap=y_cap)
        status = "regular"
        if len(pts) == 2:
            status = "degenerate"
        rows.append(ScanRow(omega=omega, count=len(pts),
                            kinds=tuple(p.kind for p in pts), status=status))

    def disc(omega: float) -> float:
        co_n = coeffs(omega)
        if co_n.Ak == 0.0:
            raise DomainError("the discriminant needs a > 0")
        return branching_discriminant(co_n.Ak, omega, co_n.f)

    omega_star = None
    for lo, hi in zip(rows[:-1], rows[1:]):
        jump = {lo.count, hi.count} == {1, 3}
        if jump:
            d_lo, d_hi = disc(lo.omega), disc(hi.omega)
            if d_lo * d_hi < 0:
                omega_star = float(bracketed_root(disc, lo.omega, hi.omega, 1e-9,
                                                  what="branching discriminant"))
            break
    return BifurcationScan(rows=rows, omega_star=omega_star, branch=branch)

"""The steady frame X = k*x - f*t, Y = k*y on scalars: particles follow
dX/dt = dH/dY, dY/dt = -dH/dX with H = Ak*cos(X)*sinh(Y) - omega*Y^2/2 - f*Y.
The kernel, the critical-point census, the level walk that ends separatrix
arms and drift orbits, and the vorticity scan run here, and transit, drift
and trajectories in ``drift``, on ``math`` without numpy; ``portrait``
re-exports these names next to its array wrappers.  A flow has one census,
up to Y_GUARD and searched once, which portraits and scans show through ``listed``.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, NumericsError, ShearwaveError, UnsupportedConfig
from .params import (HYPERBOLIC_ARG_MAX, Y_SEARCH_MAX, WaveParams, branching_discriminant,
                     check_hyperbolic, solve_dispersion)

#: Brent tolerance of the isocline roots.
ROOT_XTOL = 1e-14

#: Top of every level walk and ceiling of |Y| during integration: up to
#: here cosh and sinh stay finite.
Y_GUARD = HYPERBOLIC_ARG_MAX

#: Flows whose census ``find_critical_points`` keeps, least recently used out first.
CENSUS_MEMO_FLOWS = 64


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
        return cls(Ak=params.A * params.k, omega=params.omega,
                   f=params.f, k=params.k)

    def normalized(self) -> tuple["SteadyCoeffs", bool]:
        """Return coefficients with Ak >= 0 plus whether X was shifted by pi."""
        if self.Ak < 0:
            return SteadyCoeffs(-self.Ak, self.omega, self.f, self.k), True
        return self, False

    # The steady system, written once.  ``m`` is the arithmetic module:
    # ``steady``, ``phase`` and ``drift`` pass ``math``, on heights checked
    # against Y_GUARD where they enter.  numpy works too, but its cosh/sinh
    # differ from math's in the last ulp, so a value's bits follow the
    # module that computed it.

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

    def H_rise(self, X, Ye, d):
        """H(X, Ye + d) - H(X, Ye) on a section X = 0 or pi, on ``math``, free of
        cancellation: cos X*2*Ak*cosh(m)*sinh(d/2) - d*(omega*m + f), m = Ye + d/2."""
        m = Ye + 0.5 * d
        return (math.cos(X) * 2.0 * self.Ak * math.cosh(m) * math.sinh(0.5 * d)
                - (self.omega * m + self.f) * d)


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


def isocline_roots(X: float, co: SteadyCoeffs) -> list[float]:
    """All Y in (0, Y_GUARD) where phi(Y; X) changes sign, ascending.

    phi is convex in Y where cos(X) > 0 and concave where cos(X) < 0, so
    its interior stationary point splits (0, Y_GUARD) into at most two
    monotone pieces, and a root is a strict sign change of phi on one of
    them.  A near-tangent pair is two roots, one on each side of that
    point; an extremum that does not pass zero, or sits exactly at zero,
    gives none.
    """
    b = co.Ak * math.cos(X)
    omega, f = co.omega, co.f

    def fn(y):
        return co.H_Y(X, y, math)

    if b == 0.0:
        if omega < 0:
            y0 = -f / omega
            return [y0] if 0.0 < y0 < Y_GUARD else []
        return []

    ym = math.asinh(omega / b)  # phi's stationary point, interior where 0 < ym
    breaks = [0.0, ym, Y_GUARD] if 0.0 < ym < Y_GUARD else [0.0, Y_GUARD]

    roots = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if fn(lo) * fn(hi) < 0.0:
            y = bracketed_root(fn, lo, hi, ROOT_XTOL, what=f"isocline at X = {X:.6g}")
            for _ in range(3):  # guarded Newton steps: the residual at rounding level
                d = co.hessian(X, y, math)[2]
                y_next = y - fn(y) / d if d else math.nan
                if not lo <= y_next <= hi:
                    break
                y = y_next
            roots.append(y)
    return roots


def column_crossing(co: SteadyCoeffs, H0: float, fn, Y0: float, up: bool, cuts,
                    sign: float, stop: float | None = None) -> tuple[float, str] | None:
    """First zero of ``fn`` = H(X, .) - H0 beyond ``Y0``, up or down, where
    sign*fn > 0 before it, as (height, label), or None before ``stop``, the
    bed or Y_GUARD.  ``cuts``, the column's critical points beyond Y0 in walk
    order, split it into monotone pieces: the sign is checked at each, then
    at the bed or at doublings of the open top piece, and one Brent call
    runs on the piece where it changed, to a few ulps of the height
    (``_BRENT_RTOL`` alone).  A cut where fn is zero within rounding is met
    tangentially and gives its label, else ""."""
    ends = [(cp.Y, cp.label) for cp in cuts] + ([] if up else [(0.0, "")])
    if stop is not None:
        ends = [end for end in ends if (end[0] < stop) == up] + [(stop, "")]
    lo = Y0
    for Y, label in ends:
        value = fn(Y)
        if label and abs(value) <= 8.0 * math.ulp(
                co.Ak * math.sinh(Y) + abs((0.5 * co.omega * Y + co.f) * Y) + abs(H0)):
            return Y, label
        if sign * value <= 0.0:
            break
        lo = Y
    else:
        if not up or stop is not None:
            return None
        Y = lo + 1.0
        while Y <= Y_GUARD and sign * fn(Y) > 0.0:
            Y *= 2.0
        if Y > Y_GUARD:
            return None
    return bracketed_root(fn, *sorted((lo, Y)), 0.0, maxiter=300,
                          what="level crossing of a section"), ""


def level_end(co: SteadyCoeffs, X0: float, Y0: float,
              up: bool) -> tuple[float, float, str] | None:
    """Where the graph cos X = G(Y) of the level through (X0, Y0), followed
    up or down in Y, first meets X = pi or X = 0: (height, X, label), or
    None.  On the graph H(pi, .) < H0 < H(0, .), so each section is a
    ``column_crossing`` cut at its critical heights (the census of ``co``): X
    = pi first, then X = 0 up to where X = pi was met.  On the start's own
    section the column is written as rises from the first critical height
    passed, a loop's center, to keep a small loop's digits."""
    H0 = co.H(X0, check_hyperbolic(Y0), math)
    census, end = find_critical_points(co), None
    for X, sign in ((math.pi, -1.0), (0.0, 1.0)):
        cuts = sorted((cp for cp in census
                       if cp.X == X and (cp.Y > Y0 if up else cp.Y < Y0)),
                      key=lambda cp: cp.Y, reverse=not up)
        if X == X0:
            Yc = cuts[0].Y if cuts else Y0
            level = co.H_rise(X, Yc, Y0 - Yc)
            fn = lambda Y, X=X, Yc=Yc, level=level: co.H_rise(X, Yc, Y - Yc) - level
        else:
            fn = lambda Y, X=X: co.H(X, Y, math) - H0
        met = column_crossing(co, H0, fn, Y0, up, cuts, sign, end and end[0])
        if met is not None:
            end = (met[0], X, met[1])
    return end


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
    dX, dY = co.H_Y(X, check_hyperbolic(Y), math), -co.H_X(X, Y, math)
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


def find_critical_points(co: SteadyCoeffs) -> list[CriticalPoint]:
    """The census: all stationary points in the canonical strip (X in {0, pi},
    0 < Y < Y_GUARD), X = 0 first, each column ascending.

    Coefficients must be normalized (Ak >= 0).  Ak = 0 is the wave-free
    shear flow: its stationary set is a horizontal line, not a Morse
    point, so an empty list is returned.  The search runs once per flow:
    the census of the last CENSUS_MEMO_FLOWS coefficient sets is kept, and
    each call returns a new list of it.
    """
    return list(_search_critical_points(co))


@lru_cache(maxsize=CENSUS_MEMO_FLOWS)
def _search_critical_points(co: SteadyCoeffs) -> tuple[CriticalPoint, ...]:
    if co.Ak < 0:
        raise UnsupportedConfig(
            "coefficients must be normalized to Ak >= 0 (X -> X + pi shift)")
    if co.Ak == 0.0:
        return ()
    points = []
    for X, labels in ((0.0, ("P0", "P0b")), (math.pi, ("P1", "P2"))):
        for Y, label in zip(isocline_roots(X, co), labels):
            kind, eigs = classify_critical_point(X, Y, co)
            points.append(CriticalPoint(X=X, Y=Y, kind=kind, hessian_eigs=eigs,
                                        H_value=co.H(X, Y, math), label=label))
    return tuple(points)


def listed(co: SteadyCoeffs, ymax: float = Y_SEARCH_MAX) -> list[CriticalPoint]:
    """The census points of ``co`` that a portrait up to ``ymax``, or a scan, lists."""
    return [cp for cp in find_critical_points(co) if cp.Y <= max(ymax, Y_SEARCH_MAX)]


# ----------------------------------------------------------------------
# Vorticity bifurcation scan
# ----------------------------------------------------------------------

#: Most vorticity steps of a scan (``bifurcation --steps``), one census each:
#: 300,000 steps of fig3's sweep take about a minute on a 2-vCPU VM.
MAX_SCAN_STEPS = 300_000


class ScanRow(NamedTuple):
    omega: float
    count: int   # census points listed; 1 or 3 on the paper's flows
    kinds: tuple[str, ...]


class BifurcationScan(NamedTuple):
    rows: list[ScanRow]
    omega_star: float | None   # vorticity where the count jumps 1 -> 3
    branch: str


def bifurcation_scan(g: float, h: float, k: float, a: float,
                     omega_start: float, omega_stop: float, steps: int,
                     branch: str = "plus") -> BifurcationScan:
    """``listed`` critical-point census along a vorticity sweep at fixed (g, h, k, a).

    The wave speed is re-solved per vorticity on the chosen branch, at s = 0.  When
    the census jumps between one and three points across the sweep, the
    transition vorticity is refined by a bracketed solve on the branching
    discriminant evaluated at the actual wave coefficient.  The guards the
    swept sets exceed make one warning per scan, also when the scan raises.
    """
    if not 2 <= steps <= MAX_SCAN_STEPS:
        raise DomainError(f"steps must be from 2 to {MAX_SCAN_STEPS}, got {steps!r}")
    flagged = []  # the swept parameter sets that exceed a guard

    def solved(omega: float) -> WaveParams:
        # WaveParams.solve unwarned; recording with catch_warnings is not thread-safe.
        c = solve_dispersion(g, h, k, omega, branch=branch)
        return WaveParams._unwarned(g, h, a, k, omega, c, branch)

    try:
        rows = []
        for omega in linspace(omega_start, omega_stop, steps):
            p = solved(omega)
            if any(p._guard_messages()):
                flagged.append(p)
            pts = listed(SteadyCoeffs.from_params(p).normalized()[0])
            rows.append(ScanRow(omega=omega, count=len(pts),
                                kinds=tuple(cp.kind for cp in pts)))

        def disc(omega: float) -> float:
            p = solved(omega)  # branching_discriminant refuses A = 0
            return branching_discriminant(abs(p.A) * p.k, omega, p.f)

        omega_star = None
        for lo, hi in zip(rows[:-1], rows[1:]):
            if {lo.count, hi.count} == {1, 3}:
                d_lo, d_hi = disc(lo.omega), disc(hi.omega)
                if d_lo * d_hi <= 0:
                    omega_star = float(bracketed_root(disc, lo.omega, hi.omega, 1e-9,
                                                      what="branching discriminant"))
                break
        return BifurcationScan(rows=rows, omega_star=omega_star, branch=branch)
    finally:
        if flagged:
            first = flagged[0]
            warnings.warn(f"{len(flagged)} of the swept vorticities exceed a guard, the first "
                          f"at omega = {first.omega!r}: {next(first._guard_messages())}",
                          stacklevel=2)

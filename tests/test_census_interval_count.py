"""An independent count of the census's roots, in interval arithmetic.

On each column X = 0 and X = pi the census (``steady.find_critical_points``)
lists the heights Y in (0, Y_GUARD) where

    phi(Y) = b*cosh(Y) - omega*Y - f,    b = Ak*cos(X),

changes sign.  Here the real roots of the same phi are counted by bisection
in ``mpmath.iv`` (Moore, Kearfott & Cloud, *Introduction to Interval
Analysis*, SIAM 2009), with cosh and sinh built from ``iv.exp``:

- an interval on which the enclosure of phi excludes 0 holds no root;
- one on which the enclosure of phi' = b*sinh(Y) - omega excludes 0 holds
  one root if phi has definite, opposite signs at its ends, and none if
  they are definite and agree;
- every other interval is halved, and one still open after MAX_DEPTH
  halvings leaves its column undecided.

The count uses nothing of the census, so it checks its brackets, its
monotone pieces and its rule that a root is a strict sign change.
"""

import math
import warnings

import pytest
from mpmath import iv

from make_reference_portrait import all_params
from shearwave import SteadyCoeffs
from shearwave.steady import Y_GUARD, find_critical_points

#: Halvings of (0, Y_GUARD) before an interval counts as undecided: the
#: float ends of the intervals stay distinct to about this depth.
MAX_DEPTH = 60

#: Working precision of the interval bounds, in bits.
PREC = 113


def _cosh_sinh(Y):
    up, down = iv.exp(Y), iv.exp(-Y)
    return (up + down) / 2, (up - down) / 2


def _sign(x) -> int:
    """+1 or -1 where the interval ``x`` excludes 0, else 0."""
    return 1 if x.a > 0 else -1 if x.b < 0 else 0


def interval_root_count(b: float, omega: float, f: float) -> int | None:
    """Roots of phi on (0, Y_GUARD), or None where bisection cannot decide."""
    def phi(Y):
        return b * _cosh_sinh(Y)[0] - omega * Y - f

    def slope(Y):
        return b * _cosh_sinh(Y)[1] - omega

    def count(lo, hi, depth):
        Y = iv.mpf([lo, hi])
        if _sign(phi(Y)):
            return 0
        ends = _sign(phi(iv.mpf(lo))), _sign(phi(iv.mpf(hi)))
        if _sign(slope(Y)) and all(ends):
            return int(ends[0] != ends[1])
        if depth == MAX_DEPTH:
            return None
        mid = (lo + hi) / 2
        halves = count(lo, mid, depth + 1), count(mid, hi, depth + 1)
        return None if None in halves else sum(halves)

    prec, iv.prec = iv.prec, PREC
    try:
        return count(0.0, float(Y_GUARD), 0)
    finally:
        iv.prec = prec


def _columns():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sweep box reaches the validity guard
        cases = all_params()
    for name, params in cases.items():
        co = SteadyCoeffs.from_params(params).normalized()[0]
        for X in (0.0, math.pi):
            yield name, X, co


def test_interval_count_matches_the_census_on_every_reference_column():
    columns = list(_columns())
    assert len(columns) == 310
    disagree, undecided = [], []
    for name, X, co in columns:
        counted = interval_root_count(co.Ak * math.cos(X), co.omega, co.f)
        listed = sum(cp.X == X for cp in find_critical_points(co))
        if counted is None:
            undecided.append((name, X))
        elif counted != listed:
            disagree.append((name, X, counted, listed))
    assert undecided == [] and disagree == []


@pytest.mark.parametrize("b, omega, f, roots", [
    (1.0, 0.0, 2.0, 1),                    # cosh Y = 2
    (-1.0, -3.0, 0.5, 2),                  # concave, maximum above zero
    (-1.0, -1.0, 5.0, 0),                  # concave, maximum below zero
    (1.0, 0.0, 0.5, 0),                    # convex, above zero throughout
])
def test_interval_count_on_known_columns(b, omega, f, roots):
    assert interval_root_count(b, omega, f) == roots

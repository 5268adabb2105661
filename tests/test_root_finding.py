"""``bracketed_root`` against scipy's ``brentq``, the independent oracle:
the same function evaluations in the same order, the same root bit for
bit, and typed failures where scipy raises."""

import math
import struct

import numpy as np
import pytest
from scipy.optimize import brentq

from shearwave import DomainError, NumericsError
from shearwave.steady import bracketed_root

XTOLS = (1e-14, 1e-12, 1e-8)


def bits(v):
    return struct.pack("<d", float(v))


class Recorded:
    """A scalar function that records every argument it is called at."""

    def __init__(self, fn):
        self.fn, self.xs = fn, []

    def __call__(self, x):
        self.xs.append(bits(x))
        return self.fn(x)


def assert_same_as_brentq(fn, lo, hi, xtol, maxiter=200):
    ours, theirs = Recorded(fn), Recorded(fn)
    got = bracketed_root(ours, lo, hi, xtol, maxiter=maxiter)
    want = brentq(theirs, lo, hi, xtol=xtol, maxiter=maxiter)
    assert type(got) is float
    assert bits(got) == bits(want)
    assert ours.xs == theirs.xs
    return got


def seeded_brackets(seed, n):
    """Cubics plus a sin term, each with a sign change on [lo, hi]."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        c0, c1, c2, c3, s = rng.normal(size=5)
        w = rng.uniform(0.5, 8.0)

        def fn(x, c0=c0, c1=c1, c2=c2, c3=c3, s=s, w=w):
            return ((c3 * x + c2) * x + c1) * x + c0 + s * math.sin(w * x)

        lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))
        if math.copysign(1.0, fn(lo)) != math.copysign(1.0, fn(hi)):
            cases.append((fn, float(lo), float(hi)))
    return cases


@pytest.mark.parametrize("xtol", XTOLS)
def test_matches_brentq_on_seeded_brackets(xtol):
    for fn, lo, hi in seeded_brackets(20261018, 200):
        root = assert_same_as_brentq(fn, lo, hi, xtol)
        assert lo <= root <= hi


@pytest.mark.parametrize("xtol", XTOLS)
def test_matches_brentq_on_steep_flat_and_tiny_functions(xtol):
    cases = [
        (lambda x: math.exp(x) - 2.0, 0.0, 3.0),
        (lambda x: (x - 0.3) ** 3, -1.0, 2.0),
        (lambda x: math.atan(1e6 * (x - 1e-3)), -1.0, 1.0),
        (lambda x: 1e-300 * (x - 0.7), 0.0, 1.0),    # product of ends underflows
        # extrapolation denominators underflow to 0
        (lambda x: 1e-200 * (math.cos(x) - x), 0.0, 1.0),
        (lambda x: 1e-310 * (math.exp(x) - 2.0), 0.0, 1.0),
        (lambda x: x - 1e6, 0.0, 2e6),
        (lambda x: math.tanh(50.0 * (x + 0.25)), -1.0, 1.0),
    ]
    for fn, lo, hi in cases:
        assert_same_as_brentq(fn, lo, hi, xtol)
        assert_same_as_brentq(lambda x, fn=fn: -fn(x), lo, hi, xtol)
        assert_same_as_brentq(fn, hi, lo, xtol)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_exact_zero_at_either_end_returns_that_end(zero):
    def at_lo(x):
        return zero if x == -1.0 else x + 1.0

    def at_hi(x):
        return zero if x == 2.0 else x - 2.0

    assert bits(assert_same_as_brentq(at_lo, -1.0, 2.0, 1e-12)) == bits(-1.0)
    assert bits(assert_same_as_brentq(at_hi, -1.0, 2.0, 1e-12)) == bits(2.0)


def test_negative_zero_values_inside_the_bracket():
    # -0.0 ends the solve as a root, like +0.0, wherever it appears.
    def fn(x):
        return -0.0 if abs(x - 0.5) < 0.2 else x - 0.5

    assert_same_as_brentq(fn, 0.0, 1.0, 1e-12)
    assert_same_as_brentq(lambda x: -fn(x), 0.0, 1.0, 1e-12)


def test_few_iterations_match_brentq_until_they_run_out():
    fn = lambda x: math.cos(x) - x
    for maxiter in range(4, 12):
        ours = Recorded(fn)
        try:
            got = bracketed_root(ours, 0.0, 1.0, 1e-15, maxiter=maxiter)
        except NumericsError:
            got = None
        theirs = Recorded(fn)
        try:
            want = brentq(theirs, 0.0, 1.0, xtol=1e-15, maxiter=maxiter)
        except RuntimeError:
            want = None
        assert (got is None) == (want is None)
        if got is not None:
            assert bits(got) == bits(want)
        # A failed solve evaluates both ends again for the diagnostics.
        assert ours.xs[:len(theirs.xs)] == theirs.xs


def test_no_sign_change_is_a_numerics_error():
    with pytest.raises(NumericsError) as info:
        bracketed_root(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, what="probe")
    assert "probe" in str(info.value)
    assert info.value.diagnostics["bracket"] == (-1.0, 2.0)
    assert info.value.diagnostics["values"] == (2.0, 5.0)
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12)


def test_equal_signed_zeros_at_both_ends_are_roots_not_errors():
    assert bracketed_root(lambda x: -0.0, 0.0, 1.0, 1e-12) == 0.0


def test_nan_mid_solve_is_a_numerics_error():
    def fn(x):
        return math.nan if 0.2 < x < 0.8 else x - 0.5

    with pytest.raises(NumericsError) as info:
        bracketed_root(fn, 0.0, 1.0, 1e-12)
    assert info.value.diagnostics["bracket"] == (0.0, 1.0)
    with pytest.raises(ValueError):
        brentq(fn, 0.0, 1.0, xtol=1e-12)


def test_nan_at_an_end_is_a_numerics_error():
    with pytest.raises(NumericsError):
        bracketed_root(lambda x: math.nan if x == 0.0 else x, 0.0, 1.0, 1e-12)


def test_maxiter_one_is_a_numerics_error():
    fn = lambda x: math.cos(x) - x
    with pytest.raises(NumericsError) as info:
        bracketed_root(fn, 0.0, 1.0, 1e-14, maxiter=1)
    assert info.value.diagnostics["values"] == (1.0, math.cos(1.0) - 1.0)
    with pytest.raises(RuntimeError):
        brentq(fn, 0.0, 1.0, xtol=1e-14, maxiter=1)


def test_package_errors_raised_by_fn_pass_through():
    calls = []

    def fn(x):
        calls.append(x)
        if len(calls) > 3:
            raise DomainError("outside the model")
        return math.cos(x) - x

    with pytest.raises(DomainError, match="outside the model"):
        bracketed_root(fn, 0.0, 1.0, 1e-12)
    assert len(calls) == 4

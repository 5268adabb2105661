"""Where the level of the saddle P0 meets the X = pi section.

``layer_boundaries`` reports Y_lower and Y_upper, the heights where the
level H = H(P0) of the lowest critical point on X = 0 crosses X = pi, below
P1 and between P1 and P2.  The portrait's P0 arms end at the same
crossings.  Over the five presets and 150 sweep-box flows of
``make_reference_portrait.all_params()``:

- each reported height equals the end on X = +-pi of P0's arms, traced up
  to the portrait's height limit, bit for bit: one height per crossing;
- each is as accurate as its conditioning allows.  mpmath, at 50 digits
  and with the brackets of ``make_reference_mp.py``, solves P0, P1, P2
  and the crossing from the package's coefficients alone.  One rounding of
  H, whose terms sum to S = Ak sinh Y + |omega| Y^2/2 + f Y + |H0|, moves
  the root by cond = ulp(S) / |H_Y(pi, Y)|, in ulps of Y; the height must
  lie within ULPS_PER_ROUNDING * (1 + cond) ulps of mpmath's root.
"""

import math
import warnings

import mpmath as mp
import pytest

from make_reference_mp import DPS, Steady, _bracketed, _grow
from make_reference_portrait import all_params
from shearwave import SteadyCoeffs, layer_boundaries
from shearwave.phase import SEPARATRIX_DIRECTIONS, YMAX_LIMIT, trace_separatrix

#: Crossings that ``layer_boundaries`` reports over the 155 flows.
CROSSINGS = 266
#: Error allowed per unit of (1 + cond), in ulps of the height.
ULPS_PER_ROUNDING = 4.0


@pytest.fixture(scope="module")
def flows():
    """Case name -> (normalized coefficients, ``layer_boundaries`` report)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the box reaches the validity guard
        params = all_params()
    out = {}
    for name, p in params.items():
        co = SteadyCoeffs.from_params(p).normalized()[0]
        out[name] = co, layer_boundaries(co)
    return out


def _crossings(flows):
    return [(name, key, co, b) for name, (co, b) in flows.items()
            for key in ("Y_lower", "Y_upper") if key in b]


def test_crossings_equal_the_ends_of_the_p0_arms(flows):
    crossings = _crossings(flows)
    assert len(crossings) == CROSSINGS
    differ = []
    for name, key, co, b in crossings:
        P0 = b["critical_points"][0]
        assert (P0.X, P0.Y, P0.kind) == (0.0, b["Y_P0"], "saddle")
        ends = set()
        for direction in SEPARATRIX_DIRECTIONS:
            X, Y = trace_separatrix(P0, co, direction, ymax=YMAX_LIMIT).points[-1]
            if abs(X) == math.pi and (Y > P0.Y) == (key == "Y_upper"):
                ends.add(Y)
        if ends != {b[key]}:
            differ.append((name, key, b[key], sorted(ends)))
    assert not differ, f"{len(differ)} of {len(crossings)} differ: {differ[:5]}"


def _mp_crossing(co, key):
    """The crossing ``key`` of H(P0)'s level with X = pi, and H(P0), in mpmath."""
    s = Steady(co)
    P0 = s.isocline_roots(mp.mpf(0))[0]
    H0 = s.H(0, P0)
    g = lambda Y: s.H(mp.pi, Y) - H0
    at_pi = s.isocline_roots(mp.pi)
    if key == "Y_upper":
        return _bracketed(g, at_pi[0], at_pi[1]), H0
    hi = at_pi[0] if at_pi else _grow(g, mp.mpf(0), 1 if g(0) > 0 else -1)
    return _bracketed(g, mp.mpf(0), hi), H0


def test_crossings_are_as_accurate_as_their_conditioning(flows):
    crossings = _crossings(flows)
    assert len(crossings) == CROSSINGS
    worst = []
    with mp.workdps(DPS):
        for name, key, co, b in crossings:
            Y = b[key]
            Y_mp, H0 = _mp_crossing(co, key)
            terms = (co.Ak * math.sinh(Y) + abs(co.omega) * Y * Y / 2 + co.f * Y
                     + abs(float(H0)))
            cond = math.ulp(terms) / abs(co.H_Y(math.pi, Y, math)) / math.ulp(Y)
            err = float(abs(mp.mpf(Y) - Y_mp)) / math.ulp(Y)
            worst.append((err / (1.0 + cond), name, key, err, cond))
    worst.sort(reverse=True)
    assert worst[0][0] <= ULPS_PER_ROUNDING, worst[:5]

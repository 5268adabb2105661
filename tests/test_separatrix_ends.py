"""Separatrix arms that end at a critical point or on the bed.

The preset and sweep-box portraits end every arm on the strip boundary or at
ymax.  The flows here are built so that an arm ends elsewhere, with the
vorticity found by Brent's method on the coefficients (Ak, omega, f):

- two saddles on one level, a heteroclinic connection: each arm between
  them meets the other saddle tangentially (``critical_point``, ``near``
  naming it);
- a saddle on X = 0 above a center there, whose level loops around the
  center, crosses X = 0 below it and returns mirrored to the saddle
  (``critical_point``, ``near`` naming the saddle itself);
- the same saddle on the level H = 0, which holds the bed: its arms end at
  the bed's stagnation points cos X = f/Ak (``bed``).

An arm reads the flow's one census (``tests/test_census_memo.py`` checks
that it is searched once), so it ends on the same copy of its saddle as
the census lists.
"""

import math

import pytest

from shearwave import SteadyCoeffs, find_critical_points, layer_boundaries
from shearwave.phase import trace_separatrix
from shearwave.steady import bracketed_root

#: Ak and f of the fig3 preset, whose saddles P0 (X = 0) and P2 (X = pi)
#: swap levels between these two vorticities.
FIG3_AK, FIG3_F = 0.01969308280578214, 3.514333441988139
HETEROCLINIC_BRACKET = (-1.1, -1.0)

#: Ak > f: a center and a saddle on X = 0, and stagnation points on the bed.
BED_AK, BED_F = 2.0, 0.5
BED_BRACKET = (3.05, 3.1)

#: A center below a saddle on X = 0, whose level loops round the center.
LOOP_COEFFS = SteadyCoeffs(Ak=1.0, omega=1.1, f=0.5, k=1.0)


def _flow(Ak, omega, f):
    co = SteadyCoeffs(Ak, omega, f, 1.0)
    return co, {cp.label: cp for cp in find_critical_points(co)}


def _arms(co, saddle):
    return {d: trace_separatrix(saddle, co, d)
            for d in ("unstable+", "unstable-", "stable+", "stable-")}


def test_heteroclinic_arms_meet_the_other_saddle():
    def gap(omega):
        _, cps = _flow(FIG3_AK, omega, FIG3_F)
        return cps["P0"].H_value - cps["P2"].H_value

    omega = bracketed_root(gap, *HETEROCLINIC_BRACKET, 0.0)
    co, cps = _flow(FIG3_AK, omega, FIG3_F)
    P0, P2 = cps["P0"], cps["P2"]
    assert (P0.X, P0.kind, P2.X, P2.kind) == (0.0, "saddle", math.pi, "saddle")
    assert abs(P0.H_value - P2.H_value) <= 8.0 * math.ulp(abs(P0.H_value))

    up = _arms(co, P0)
    for direction, side in (("unstable+", 1.0), ("stable-", -1.0)):
        arm = up[direction]
        assert (arm.termination, arm.near_label) == ("critical_point", "P2")
        assert arm.points[-1] == (side * math.pi, P2.Y)
    for direction in ("unstable-", "stable+"):
        assert (up[direction].termination, up[direction].near_label) == ("strip_boundary", "")

    down = _arms(co, P2)
    assert (down["stable-"].termination, down["stable-"].near_label) == ("critical_point", "P0")
    assert down["stable-"].points[-1] == (P0.X, P0.Y)
    assert down["unstable+"].termination == "ymax"


def test_level_around_a_center_on_x0_returns_to_its_saddle():
    co, cps = _flow(1.0, 1.2, 0.5)
    center, saddle = cps["P0"], cps["P0b"]
    assert (center.kind, saddle.kind) == ("center", "saddle")
    assert center.Y < saddle.Y and saddle.H_value > 0.0
    arms = _arms(co, saddle)
    for direction in ("unstable+", "stable+"):
        arm = arms[direction]
        assert (arm.termination, arm.near_label) == ("critical_point", "P0b")
        assert len(arm.points) == 2 * 481 - 1
        assert arm.points[0] == arm.points[-1] == (0.0, saddle.Y)
        X_mid, Y_mid = arm.points[480]
        assert X_mid == 0.0 and 0.0 < Y_mid < center.Y
        # The crossing below the center lies on the saddle's level.
        assert co.H(0.0, Y_mid, math) == pytest.approx(saddle.H_value, abs=1e-15)
    for direction in ("unstable-", "stable-"):
        assert (arms[direction].termination, arms[direction].near_label) == ("ymax", "")


def _bed_flow():
    """The flow with Ak = BED_AK whose saddle P0b lies on H = 0 exactly:
    Brent's vorticity for f from BED_F up by ulps, the first f at which
    H(P0b) rounds to 0 (H is a step function of omega at this scale)."""
    f = BED_F
    for _ in range(100):
        omega = bracketed_root(lambda om: _flow(BED_AK, om, f)[1]["P0b"].H_value,
                               *BED_BRACKET, 0.0)
        co, cps = _flow(BED_AK, omega, f)
        if cps["P0b"].H_value == 0.0:
            return co, cps
        f = math.nextafter(f, 1.0)
    raise AssertionError("no f within 100 ulps of BED_F puts P0b on H = 0")


def test_level_h0_ends_on_the_bed():
    co, cps = _bed_flow()
    saddle = cps["P0b"]
    assert saddle.kind == "saddle" and saddle.H_value == 0.0
    X_bed = math.acos(co.f / BED_AK)
    arms = _arms(co, saddle)
    for direction, side in (("unstable+", -1.0), ("stable+", 1.0)):
        arm = arms[direction]
        assert (arm.termination, arm.near_label) == ("bed", "")
        assert arm.points[-1] == (side * X_bed, 0.0)
    for direction in ("unstable-", "stable-"):
        assert arms[direction].termination == "ymax"


def test_arm_traced_without_a_census_returns_to_its_saddle():
    co = LOOP_COEFFS
    census = find_critical_points(co)
    assert census == layer_boundaries(co)["critical_points"]   # the drift's census
    center, saddle = census
    assert (center.label, center.kind, saddle.label, saddle.kind) == \
        ("P0", "center", "P0b", "saddle")
    arm = trace_separatrix(saddle, co, "unstable+")
    assert (arm.termination, arm.near_label) == ("critical_point", "P0b")
    assert len(arm.points) == 2 * 481 - 1
    assert arm.points[0] == arm.points[-1] == (0.0, saddle.Y)
    X_mid, Y_mid = arm.points[480]
    assert X_mid == 0.0 and 0.0 < Y_mid < center.Y

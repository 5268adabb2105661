"""Small vortex loops against the linearization at their centre.

Near a centre (pi, Yc) the flow is the linear one of the Hessian of H,
whose orbits all take 2*pi/sqrt(det Hess H(pi, Yc)).  A loop through
Yc*(1 +- eps) differs from that period by O(eps^2), so halving eps
divides the relative error by four: the rate is checked, not a
tolerance, on fig2's centre P1 from both sides.
"""

import math

import pytest

from shearwave import SteadyCoeffs, from_mapping
from shearwave.cli import PRESETS
from shearwave.drift import drift_per_period
from shearwave.steady import find_critical_points


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_small_loop_period_tends_to_the_linear_period(side):
    p = from_mapping(PRESETS["fig2"]["params"])
    co, _ = SteadyCoeffs.from_params(p).normalized()
    (center,) = [cp for cp in find_critical_points(co) if cp.kind == "center"]
    assert center.X == math.pi
    Hxx, Hxy, Hyy = co.hessian(center.X, center.Y, math)
    linear = 2.0 * math.pi / math.sqrt(Hxx * Hyy - Hxy * Hxy)
    errors = []
    for i in range(5):
        r = drift_per_period(center.Y * (1.0 + side * 1e-2 / 2 ** i), co)
        assert r.layer == "vortex"
        errors.append(abs(r.tau - linear) / linear)
    assert errors[0] < 1e-4
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.9 <= coarse / fine <= 4.1

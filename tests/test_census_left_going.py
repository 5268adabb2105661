"""The census of a left-going flow (f < 0 after normalization).

A flow and its mirror image have the same critical points up to the shift
X -> X + pi.  On a column where b = Ak*cos(X) < 0 and omega >= 0, phi is
decreasing in Y, and it has one root exactly when phi(0) = b - f > 0, which
holds for f < 0: such a column is searched, not skipped.
"""

import math

import pytest

from shearwave import SteadyCoeffs, bifurcation_scan, find_critical_points, from_mapping
from shearwave.cli import PRESETS


def census(branch):
    p = from_mapping({**PRESETS["fig1"]["params"], "branch": branch})
    co, _ = SteadyCoeffs.from_params(p).normalized()
    return co, find_critical_points(co)


def test_fig1_minus_branch_lists_the_points_of_its_mirror():
    co, points = census("minus")
    _, mirror = census("plus")
    assert co.f < 0 and mirror
    assert [cp.kind for cp in points] == [cp.kind for cp in mirror]
    assert [cp.Y for cp in points] == pytest.approx([cp.Y for cp in mirror],
                                                    rel=1e-12)
    assert [cp.X for cp in points] == [math.fmod(cp.X + math.pi, 2.0 * math.pi)
                                       for cp in mirror]


def test_fig2_scan_to_zero_vorticity_ends_in_one_saddle():
    q = PRESETS["fig2"]["params"]
    scan = bifurcation_scan(q["g"], q["h"], q["k"], q["a"], -6.0, 0.0, 13,
                            branch=q["branch"])
    last = scan.rows[-1]
    assert (last.omega, last.count, last.kinds) == (0.0, 1, ("saddle",))
    assert sorted({r.count for r in scan.rows}) == [1, 2, 3]

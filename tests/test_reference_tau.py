"""Transit times and vortex loop periods against ``reference_tau.json``,
the mpmath values written by ``make_reference_tau.py``.

Every default drift level that transits is checked to 1e-13 relative.  The
levels just below a separatrix, Y_lower*(1 - eps), get the bounds stated
here: each was set a few times the error measured when the file was made,
and below the error of the adaptive Gauss-Kronrod quadrature (``quad`` over
a scalar level solver) that computed tau before, measured against the same
file.  The fig2 rows were regenerated after the bounds were set, and the
fig2 eps = 1e-3 row now errs by 99.4% of its bound (9.94e-15 of 1e-14); the
other rows sit 1.1 to 4.5 times below theirs, measured with transits timed
over Y on the level graph.  There the level height is
ill-conditioned where dX/dt nearly vanishes, and that rounding, not the
quadrature, sets the error.

The vortex loop periods of the fig2 and fig4-right profiles are checked
to LOOP_RTOL.  Their ``tau_err``, the difference of the last two
quadrature estimates, is far above the true error (1.8e-14 of tau where
the error is 2.1e-16), so it is held to DEFAULT_RTOL, the bound of the
transits.  The two loops next to fig2's separatrix are checked against
``make_reference_tau.loop_period_mp``, computed here (about 0.5 s each).
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from make_reference_tau import DPS, loop_period_mp
from shearwave import (SteadyCoeffs, classify_layer, drift_per_period, from_mapping,
                       layer_boundaries)
from shearwave.cli import PRESETS
from shearwave.drift import fluid_top_level, transit_time_tau

REFERENCE = json.loads(Path(__file__).with_name("reference_tau.json")
                       .read_text(encoding="utf-8"))

DEFAULT_RTOL = 1e-13

#: Vortex loop periods: (bound, worst error measured when the file was made)
LOOP_RTOL, LOOP_MEASURED = 2e-15, 4.5e-16

#: (preset, eps): (bound, measured error of the current quadrature, former
#: quad error); only the bound is asserted
NEAR_SEPARATRIX = {
    ("fig1", 1e-3): (2e-14, 5.62e-15, 5.5e-14),
    ("fig1", 1e-6): (1e-11, 2.23e-12, 2.8e-11),
    ("fig1", 1e-8): (5e-10, 2.24e-10, 3.0e-9),
    ("fig2", 1e-3): (1e-14, 9.94e-15, 5.9e-11),
    ("fig2", 1e-6): (1e-11, 4.47e-12, 8.6e-8),
    ("fig2", 1e-8): (5e-10, 4.50e-10, 4.7e-6),
}

#: fig2 vortex loops next to the separatrix, (boundary, eps) for the level
#: boundary*(1 + eps): (bound, measured error), only the bound is asserted.
#: There ``tau_err`` reads 2.4e-10 and 5.9e-10, below the error.
NEAR_SEPARATRIX_LOOPS = {
    ("Y_lower", 1e-8): (5e-9, 1.03e-9),
    ("Y_upper", -1e-10): (5e-8, 1.37e-8),
}


def coeffs(name):
    params = from_mapping(PRESETS[name]["params"])
    co, shifted = SteadyCoeffs.from_params(params).normalized()
    return params, co, shifted


def default_levels(params, shifted):
    """The levels the file was made for, ``drift_profile(n=levels_n)``'s."""
    top = 0.999 * fluid_top_level(params, shifted)
    return [0.0] + np.geomspace(1e-5 * top, top, REFERENCE["levels_n"] - 1).tolist()


@pytest.mark.parametrize("name", sorted(REFERENCE["presets"]))
def test_default_levels_match_reference(name):
    ref = REFERENCE["presets"][name]
    params, co, shifted = coeffs(name)
    # The file was made for these exact inputs.
    assert (co.Ak, co.omega, co.f) == (ref["Ak"], ref["omega"], ref["f"])
    transits = [Y0 for Y0 in default_levels(params, shifted)
                if classify_layer(Y0, co) in ("bed_adjacent", "internal_wave",
                                              "surface_wave")]
    assert transits == [row["Y0"] for row in ref["levels"]]
    worst = 0.0
    for row in ref["levels"]:
        report = drift_per_period(row["Y0"], co)
        assert report.layer == row["layer"]
        tau, want = transit_time_tau(row["Y0"], co), float(row["tau"])
        assert report.tau == tau and report.tau_err <= DEFAULT_RTOL * tau
        worst = max(worst, abs(tau - want) / want)
    assert worst <= DEFAULT_RTOL


@pytest.mark.parametrize("case", sorted(NEAR_SEPARATRIX), ids=lambda c: f"{c[0]}-{c[1]:g}")
def test_near_separatrix_levels_within_stated_bounds(case):
    bound, _, quad_error = NEAR_SEPARATRIX[case]
    assert bound < quad_error
    (row,) = [r for r in REFERENCE["near_separatrix"]
              if (r["preset"], r["eps"]) == case]
    _, co, _ = coeffs(case[0])
    assert row["Y0"] == layer_boundaries(co)["Y_lower"] * (1.0 - case[1])
    want = float(row["tau"])
    assert abs(transit_time_tau(row["Y0"], co) - want) <= bound * want


@pytest.mark.parametrize("name", sorted(REFERENCE["loops"]))
def test_loop_periods_match_reference(name):
    rows = REFERENCE["loops"][name]
    params, co, shifted = coeffs(name)
    assert [row["Y0"] for row in rows] == [
        Y0 for Y0 in default_levels(params, shifted)
        if classify_layer(Y0, co) == "vortex"]
    assert LOOP_MEASURED < LOOP_RTOL <= 1e-14
    worst = 0.0
    for row in rows:
        report = drift_per_period(row["Y0"], co)
        want = float(row["tau"])
        assert report.tau_err <= DEFAULT_RTOL * report.tau
        worst = max(worst, abs(report.tau - want) / want)
    assert worst <= LOOP_RTOL


@pytest.mark.parametrize("case", sorted(NEAR_SEPARATRIX_LOOPS), ids=lambda c: f"{c[0]}{c[1]:+g}")
def test_near_separatrix_loops_within_stated_bounds(case):
    bound, measured = NEAR_SEPARATRIX_LOOPS[case]
    assert measured < bound
    _, co, _ = coeffs("fig2")
    b = layer_boundaries(co)
    Y0 = b[case[0]] * (1.0 + case[1])
    report = drift_per_period(Y0, co)
    assert report.layer == "vortex"
    with mp.workdps(DPS):
        want = float(loop_period_mp(co, Y0, b["Y_P0"]))
    assert abs(report.tau - want) <= bound * want

"""Transit times against ``reference_tau.json``, the 45-digit mpmath values
written by ``make_reference_tau.py``.

Every default drift level that transits is checked to 1e-13 relative.  The
levels just below a separatrix, Y_lower*(1 - eps), get the bounds stated
here: each is a few times the error measured when the file was made, and
below the error of the adaptive Gauss-Kronrod quadrature (``quad`` over a
scalar level solver) that computed tau before, measured against the same
file.  There the level height is ill-conditioned where dX/dt nearly
vanishes, and that rounding, not the quadrature, sets the error.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from shearwave import (SteadyCoeffs, classify_layer, drift_per_period, from_mapping,
                       layer_boundaries)
from shearwave.cli import PRESETS
from shearwave.drift import fluid_top_level, transit_time_tau

REFERENCE = json.loads(Path(__file__).with_name("reference_tau.json")
                       .read_text(encoding="utf-8"))

DEFAULT_RTOL = 1e-13

#: (preset, eps): (bound, measured when the file was made, former quad error)
NEAR_SEPARATRIX = {
    ("fig1", 1e-3): (2e-14, 4.0e-15, 5.5e-14),
    ("fig1", 1e-6): (1e-11, 1.9e-12, 2.8e-11),
    ("fig1", 1e-8): (5e-10, 1.2e-10, 3.0e-9),
    ("fig2", 1e-3): (1e-14, 1.2e-15, 5.9e-11),
    ("fig2", 1e-6): (1e-11, 2.7e-12, 8.6e-8),
    ("fig2", 1e-8): (5e-10, 1.1e-10, 4.7e-6),
}


def coeffs(name):
    params = from_mapping(PRESETS[name]["params"])
    co, shifted = SteadyCoeffs.from_params(params).normalized()
    return params, co, shifted


@pytest.mark.parametrize("name", sorted(REFERENCE["presets"]))
def test_default_levels_match_reference(name):
    ref = REFERENCE["presets"][name]
    params, co, shifted = coeffs(name)
    # The file was made for these exact inputs.
    assert (co.Ak, co.omega, co.f) == (ref["Ak"], ref["omega"], ref["f"])
    b = layer_boundaries(co)
    top = 0.999 * fluid_top_level(params, shifted)
    n = REFERENCE["levels_n"]
    levels = [0.0] + np.geomspace(1e-5 * top, top, n - 1).tolist()
    transits = [Y0 for Y0 in levels
                if classify_layer(Y0, co, b) in ("bed_adjacent", "internal_wave",
                                                 "surface_wave")]
    assert transits == [row["Y0"] for row in ref["levels"]]
    worst = 0.0
    for row in ref["levels"]:
        report = drift_per_period(row["Y0"], co, boundaries=b)
        assert report.layer == row["layer"]
        tau, want = transit_time_tau(row["Y0"], co, boundaries=b), float(row["tau"])
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

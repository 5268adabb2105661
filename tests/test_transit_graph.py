"""Transit times over Y on the level graph, with no level solve.

A transit from (pi, Y0) to (0, Y_end) is timed as a vortex loop is: over
Y on its graph cos X = G(Y), between its two section heights, so no root
solver runs inside the quadrature.  The sweep-box flows named here have
transits that pass over a center at X = 0, where a Newton solve of the
level height at each X node used to fail and fall back to Brent's method
thousands of times per profile.

A flat level, one whose X = 0 height equals Y0, stays at Y0 and is timed
in closed form; sweep007 and sweep112 have about thirty each, checked here
against direct integration (``event_oracle``).
"""

import math

import pytest

from event_oracle import event_oracle
from make_reference_portrait import all_params
from shearwave import SteadyCoeffs, drift, drift_profile

pytestmark = pytest.mark.filterwarnings("ignore:.*exceeds:UserWarning")

PROFILES = ("fig1", "fig2", "fig3", "fig4-left", "fig4-right",
            "sweep042", "sweep054", "sweep060", "sweep107")


@pytest.fixture(scope="module")
def flows():
    return all_params()


@pytest.mark.parametrize("name", PROFILES)
def test_a_drift_profile_solves_no_level(name, flows, monkeypatch):
    calls = []
    solve = drift.bracketed_root
    monkeypatch.setattr(drift, "bracketed_root",
                        lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
    reports = drift_profile(flows[name], n=33)
    assert any(r.layer in ("internal_wave", "surface_wave") for r in reports)
    assert calls == []


@pytest.mark.parametrize("name", ["sweep007", "sweep112"])
def test_flat_levels_match_the_event_oracle(name, flows):
    co, _ = SteadyCoeffs.from_params(flows[name]).normalized()
    flat = [r for r in drift_profile(flows[name], n=33)
            if r.Y0 > 0.0 and drift._orbit(math.pi, r.Y0, co)[2] == r.Y0]
    assert len(flat) >= 29
    for r in flat:
        family, tau = event_oracle(r.Y0, co)
        assert r.layer == family
        assert r.tau_err == 0.0
        assert abs(r.tau - tau) <= 1e-12 * tau

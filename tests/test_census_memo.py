"""The census of critical points is searched once per flow.

``steady.find_critical_points`` keeps the census of the last
``CENSUS_MEMO_FLOWS`` coefficient sets, and the portrait, the drift levels,
the loop periods, the closed-orbit search, the trajectory layer and the
transit times all read it there.  A search is two ``isocline_roots`` calls,
one on X = 0 and one on X = pi, so counting those counts searches.
"""

import math

import pytest

from shearwave import (SteadyCoeffs, build_phase_portrait, drift_profile, find_closed_orbit,
                       find_critical_points, integrate_steady, steady, transit_time_tau)


@pytest.fixture
def searches(monkeypatch):
    """The X of every ``isocline_roots`` call, from an empty memo."""
    steady._search_critical_points.cache_clear()
    calls = []
    roots = steady.isocline_roots

    def counted(X, co):
        calls.append(X)
        return roots(X, co)

    monkeypatch.setattr(steady, "isocline_roots", counted)
    yield calls
    steady._search_critical_points.cache_clear()


def test_every_consumer_reads_one_search(searches, fig2_params):
    co, shifted = SteadyCoeffs.from_params(fig2_params).normalized()
    portrait = build_phase_portrait(fig2_params)
    assert [cp.label for cp in portrait.critical_points] == ["P0", "P1", "P2"]
    profile = drift_profile(fig2_params, n=33)
    assert {"internal_wave", "vortex", "surface_wave"} <= {r.layer for r in profile}
    assert find_closed_orbit(fig2_params) is None    # every layer drifts forward
    center = portrait.critical_points[1]
    traj = integrate_steady(math.pi, 0.5 * center.Y, co, 1.0, shifted=shifted)
    assert traj.layer == "vortex"
    transit = next(r for r in profile if r.layer == "internal_wave")
    assert transit_time_tau(transit.Y0, co) == transit.tau
    assert searches == [0.0, math.pi]


def test_other_coefficients_search_again(searches, fig2_coeffs):
    find_critical_points(fig2_coeffs)
    other = SteadyCoeffs(fig2_coeffs.Ak, fig2_coeffs.omega, fig2_coeffs.f, 2.0)
    find_critical_points(other)
    find_critical_points(fig2_coeffs)
    assert searches == [0.0, math.pi] * 2


def test_a_changed_list_leaves_the_census_unchanged(searches, fig2_coeffs):
    census = find_critical_points(fig2_coeffs)
    first = list(census)
    census.pop()
    census.append(census[0])
    assert find_critical_points(fig2_coeffs) == first
    assert find_critical_points(fig2_coeffs) is not find_critical_points(fig2_coeffs)
    assert searches == [0.0, math.pi]


def test_the_memo_holds_a_fixed_number_of_flows(searches, fig2_coeffs):
    assert steady._search_critical_points.cache_info().maxsize == steady.CENSUS_MEMO_FLOWS
    find_critical_points(fig2_coeffs)
    for k in range(2, steady.CENSUS_MEMO_FLOWS + 2):
        find_critical_points(SteadyCoeffs(fig2_coeffs.Ak, fig2_coeffs.omega,
                                          fig2_coeffs.f, float(k)))
    find_critical_points(fig2_coeffs)   # dropped as the least recently used
    assert len(searches) == 2 * (steady.CENSUS_MEMO_FLOWS + 2)

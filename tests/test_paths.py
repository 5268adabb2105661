import math
import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from shearwave import (DomainError, NumericsError, SteadyCoeffs, WaveParams,
                       classify_layer, drift, drift_per_period, drift_profile,
                       find_closed_orbit, find_critical_points, from_mapping,
                       integrate_steady, layer_boundaries, read_seeds,
                       section_height, transit_time_tau)
from shearwave.cli import PRESETS
from shearwave.dop853 import TOO_MANY_STEPS, dop853
from shearwave.drift import (DRIFT_HEADER, TRAJECTORY_HEADER, Y_GUARD, drift_csv_rows,
                             physical_coords, trajectory_csv_rows)

G = 9.81


def event_crossing_time(Y0, co, target, direction, rtol, atol, periods):
    """Oracle: first time the orbit from (pi, Y0) crosses X = target in
    ``direction``, by scipy's DOP853 with event detection."""
    def rhs(t, z):
        return co.H_Y(z[0], z[1], np), -co.H_X(z[0], z[1], np)

    def event(t, z):
        return z[0] - target
    event.terminal = True
    event.direction = direction
    t_max = periods * 2.0 * math.pi / co.f
    sol = solve_ivp(rhs, (0.0, t_max), (math.pi, Y0), method="DOP853",
                    rtol=rtol, atol=atol, events=event)
    assert sol.t_events[0].size, f"no crossing of X = {target} from Y0 = {Y0}"
    return float(sol.t_events[0][0])


class TestIntegration:
    def test_bed_line_exactly_invariant(self, fig1_coeffs):
        co = fig1_coeffs
        traj = integrate_steady(math.pi, 0.0, co, 20.0)
        assert np.all(traj.Y == 0.0)
        assert np.all(np.diff(traj.X) < 0)  # Ak < f: steady drift to the left

    def test_center_is_stationary_over_100_periods(self, fig2_coeffs):
        co = fig2_coeffs
        center = find_critical_points(co)[1]
        t_end = 100 * 2 * math.pi / co.f
        traj = integrate_steady(center.X, center.Y, co, t_end,
                                rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(traj.X - center.X)) < 1e-10
        assert np.max(np.abs(traj.Y - center.Y)) < 1e-10

    def test_hamiltonian_audit(self, fig2_coeffs):
        co = fig2_coeffs
        t_end = 100 * 2 * math.pi / co.f
        traj = integrate_steady(math.pi, 0.02, co, t_end)
        assert traj.h_drift_scaled < 1e-8

    def test_midpoint_scheme_conserves_over_long_runs(self, fig2_coeffs):
        co = fig2_coeffs
        period = 2 * math.pi / co.f
        traj = integrate_steady(math.pi, 0.02, co, 100 * period,
                                method="midpoint", dt=period / 400)
        assert traj.h_drift_scaled < 1e-6
        # No secular trend: the drift over the second half matches the first.
        half = len(traj.t) // 2
        drift_a = np.max(np.abs(traj.H[:half] - traj.H[0]))
        drift_b = np.max(np.abs(traj.H[half:] - traj.H[0]))
        assert drift_b < 2.0 * max(drift_a, 1e-12)

    @staticmethod
    def _midpoint_drifts(name, *steps_per_period):
        """Scaled H drift over 10 periods from (pi, half the trough height)
        at each step size period/m."""
        p = from_mapping(PRESETS[name]["params"])
        co, shifted = SteadyCoeffs.from_params(p).normalized()
        period = 2 * math.pi / co.f
        return [integrate_steady(math.pi, 0.5 * p.k * (p.h - p.a), co, 10 * period,
                                 method="midpoint", dt=period / m,
                                 shifted=shifted).h_drift_scaled
                for m in steps_per_period]

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_midpoint_scheme_is_second_order(self, name):
        coarse, fine = self._midpoint_drifts(name, 200, 400)
        assert 3.5 < coarse / fine < 4.5

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig4-left"])
    def test_midpoint_drift_within_the_benchmark_audit_bound(self, name):
        assert self._midpoint_drifts(name, 200)[0] < 1e-2

    def test_escape_is_truncated_and_flagged(self):
        co = SteadyCoeffs(Ak=0.5, omega=0.0, f=0.1, k=1.0)
        traj = integrate_steady(0.1, 5.0, co, 1e4)
        assert traj.truncated
        assert 30.0 < np.max(np.abs(traj.Y)) <= 701.0
        # The midpoint run stops at the last step that stays finite and
        # below the guard, whatever the step size.
        for dt in (None, 5.0, 0.5, 0.05, 0.005):
            traj = integrate_steady(0.1, 5.0, co, 1e4, method="midpoint", dt=dt)
            assert traj.truncated
            rows = np.column_stack([traj.t, traj.X, traj.Y, traj.x, traj.y, traj.H])
            assert np.all(np.isfinite(rows))
            assert np.max(np.abs(traj.Y)) <= Y_GUARD

    def test_a_step_past_the_guard_is_not_kept(self):
        # At rtol 0.9 an accepted DOP853 step jumps from Y = 6.5 to 5605, so
        # the run is interrupted: it keeps the rows below the guard, the
        # accepted steps up to that one, and is flagged truncated.
        co = SteadyCoeffs(Ak=0.5, omega=0.0, f=0.1, k=1.0)
        rows = []
        dop853(drift._scalar_rhs(co), 0.0, (0.1, 5.0), 1e4, 0.9, 1e-12,
               lambda t_old, t, z: rows.append((t, *z)) or abs(z[1]) > Y_GUARD)
        assert rows[-1][2] > Y_GUARD >= max(Y for _, _, Y in rows[:-1])
        traj = integrate_steady(0.1, 5.0, co, 1e4, rtol=0.9)
        assert traj.truncated
        assert list(zip(traj.t, traj.X, traj.Y)) == rows[:-1]
        assert np.all(np.isfinite(traj.H))

    def test_preconditions(self, fig1_coeffs):
        with pytest.raises(DomainError):
            integrate_steady(0.0, -0.1, fig1_coeffs, 1.0)
        with pytest.raises(DomainError):
            integrate_steady(0.0, 0.1, fig1_coeffs, 0.0)
        with pytest.raises(DomainError):
            integrate_steady(0.0, 0.1, fig1_coeffs, 1.0, method="euler")
        for bad in (dict(X0=math.nan), dict(Y0=math.inf), dict(t_end=math.inf),
                    dict(rtol=math.nan), dict(rtol=-1.0), dict(atol=0.0)):
            for method in ("adaptive", "midpoint"):
                args = dict(X0=0.0, Y0=0.1, co=fig1_coeffs, t_end=1.0, method=method)
                with pytest.raises(DomainError):
                    integrate_steady(**{**args, **bad})
        # 5e-324 asks for more steps than drift.MAX_STEPS (t_end/dt = inf).
        for dt in (0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324):
            with pytest.raises(DomainError, match="dt"):
                integrate_steady(0.0, 0.1, fig1_coeffs, 1.0, method="midpoint", dt=dt)

    def test_mirror_symmetry(self, fig2_coeffs):
        # The flow commutes with (X, t) -> (-X, -t): running forward from
        # (X0, Y0) to (X1, Y1) implies running forward from (-X1, Y1)
        # returns to (-X0, Y0) in the same time.
        co = fig2_coeffs
        t_end = 5.0
        fwd = integrate_steady(1.0, 0.03, co, t_end, rtol=1e-12, atol=1e-14)
        X1, Y1 = float(fwd.X[-1]), float(fwd.Y[-1])
        back = integrate_steady(-X1, Y1, co, t_end, rtol=1e-12, atol=1e-14)
        assert float(back.X[-1]) == pytest.approx(-1.0, abs=1e-9)
        assert float(back.Y[-1]) == pytest.approx(0.03, abs=1e-9)


class TestStepBudget:
    """Both integrators stop at ``drift.MAX_STEPS``, patched small here."""

    def test_midpoint_refuses_a_run_beyond_the_budget(self, fig1_coeffs, monkeypatch):
        monkeypatch.setattr(drift, "MAX_STEPS", 100)
        assert len(integrate_steady(0.1, 0.5, fig1_coeffs, 1.0, method="midpoint",
                                    dt=0.01).t) == 101
        with pytest.raises(DomainError, match="step budget"):
            integrate_steady(0.1, 0.5, fig1_coeffs, 1.0, method="midpoint", dt=0.005)

    def test_truncated_midpoint_run_times_only_its_rows(self):
        # The orbit escapes above Y_GUARD after 8 of 2,000,000 planned steps;
        # the times of the 9 kept rows are those of the full time grid.
        start = time.perf_counter()
        traj = integrate_steady(0.1, 5.0, SteadyCoeffs(0.5, 0.0, 0.1, 1.0), 1e4,
                                method="midpoint", dt=0.005)
        elapsed = time.perf_counter() - start
        assert traj.truncated and len(traj.t) == 9
        assert np.array_equal(traj.t, np.linspace(0.0, 1e4, 2_000_001)[:9])
        assert elapsed < 0.05

    def test_dop853_stops_at_the_budget(self, fig1_coeffs, monkeypatch):
        t_end = 20 * 2.0 * math.pi / fig1_coeffs.f
        steps = len(integrate_steady(math.pi, 0.5, fig1_coeffs, t_end).t) - 1
        monkeypatch.setattr(drift, "MAX_STEPS", steps // 2)
        with pytest.raises(NumericsError, match="step budget") as exc:
            integrate_steady(math.pi, 0.5, fig1_coeffs, t_end)
        assert exc.value.diagnostics["idid"] == TOO_MANY_STEPS
        assert exc.value.diagnostics["t_reached"] < t_end


class TestFrameConversion:
    def test_center_moves_in_a_straight_line(self, fig2_coeffs):
        co = fig2_coeffs
        center = find_critical_points(co)[1]
        t_end = 10 * 2 * math.pi / co.f
        traj = integrate_steady(center.X, center.Y, co, t_end,
                                rtol=1e-12, atol=1e-14, shifted=True)
        x, y = traj.x, traj.y
        mean_speed = float((x[-1] - x[0]) / (traj.t[-1] - traj.t[0]))
        assert mean_speed == pytest.approx(co.f / co.k, rel=1e-10)
        assert np.max(np.abs(y - y[0])) < 1e-12

    def test_zero_frequency_frame_is_identity(self):
        co = SteadyCoeffs(Ak=0.0, omega=0.0, f=0.0, k=2.0)
        from shearwave.drift import Trajectory
        t = np.linspace(0, 1, 5)
        X = np.full(5, 0.7)
        Y = np.full(5, 0.4)
        traj = Trajectory(t=t, X=X, Y=Y, x=np.empty(5), y=np.empty(5), H=np.zeros(5))
        x, y = physical_coords(traj.t, traj.X, traj.Y, co, traj.shifted)
        assert np.all(x == 0.35)
        assert np.all(y == 0.2)


class TestTransitTime:
    def test_bed_closed_form_verified_by_quadrature(self, fig1_coeffs):
        # First verify the closed form against direct quadrature of
        # 2f * int dX / (f^2 - (Ak cos X)^2) over a half period, then
        # check the production route against it.
        co = fig1_coeffs
        f, b = co.f, co.Ak
        oracle, _ = quad(lambda X: 2 * f / (f * f - (b * math.cos(X)) ** 2),
                         -math.pi / 2, math.pi / 2, epsabs=1e-14, epsrel=1e-13)
        closed_form = 2 * math.pi / math.sqrt(f * f - b * b)
        assert oracle == pytest.approx(closed_form, rel=1e-12)
        tau = transit_time_tau(0.0, co)
        assert tau == pytest.approx(closed_form, rel=1e-10)
        assert tau > 2 * math.pi / f

    def test_wave_free_flow_is_exactly_periodic(self):
        co = SteadyCoeffs(Ak=0.0, omega=0.0, f=0.5, k=1.0)
        assert transit_time_tau(0.0, co) == 2 * math.pi / 0.5

    def test_routes_agree(self, fig2_coeffs):
        # Quadrature against event-detected direct integration of one
        # transit, leftward on the interior wave and rightward on the
        # surface layer.
        for Y0, direction in ((0.002, -1.0), (0.004, -1.0), (0.5, 1.0)):
            tau = transit_time_tau(Y0, fig2_coeffs)
            tau_evt = event_crossing_time(Y0, fig2_coeffs,
                                          math.pi + direction * 2.0 * math.pi,
                                          direction, 1e-12, 1e-13, 10000.0)
            assert tau == pytest.approx(tau_evt, rel=1e-8)

    def test_bed_with_stagnation_points_has_no_transit(self):
        # With Ak >= f, dX/dt = Ak cos X - f vanishes on the bed: the bed is
        # a chain of saddle connections, not a transit.
        p = WaveParams.solve(G, 1.6339, 0.051125, 17.573, a=0.050703,
                             branch="plus")
        co, _ = SteadyCoeffs.from_params(p).normalized()
        assert co.Ak >= co.f
        assert transit_time_tau(0.0, co) is None

    def test_vortex_level_has_no_transit(self, fig2_coeffs):
        assert transit_time_tau(0.02, fig2_coeffs) is None

    def test_unbounded_family_has_no_transit(self, fig1_coeffs, fig2_coeffs):
        # Orbits hugging a vertical asymptote keep X bounded: no transit.
        for co, top_point in ((fig1_coeffs, "Y_P0"), (fig2_coeffs, "Y_P2")):
            b = layer_boundaries(co)
            Y0 = b[top_point] + 0.3
            assert classify_layer(Y0, co) == "unbounded"
            assert transit_time_tau(Y0, co) is None

    def test_interior_wave_slower_than_bed(self, fig2_coeffs):
        co = fig2_coeffs
        tau_bed = transit_time_tau(0.0, co)
        tau_mid = transit_time_tau(0.003, co)
        assert tau_mid > tau_bed > 2 * math.pi / co.f


class TestSectionHeight:
    def test_identity_on_the_section(self, fig2_coeffs):
        assert section_height(math.pi, 0.02, fig2_coeffs) == pytest.approx(
            0.02, abs=1e-13)
        assert section_height(0.3, 0.0, fig2_coeffs) == 0.0

    def test_recovers_crossing_from_other_phases(self, fig2_coeffs):
        # Integrate away from the section, then recover the crossing height
        # from the displaced point; it must preserve the H level.
        co = fig2_coeffs
        for Y0 in (0.002, 0.02, 0.5):
            traj = integrate_steady(math.pi, Y0, co, 3.0, rtol=1e-12, atol=1e-14)
            X1, Y1 = float(traj.X[-1]), float(traj.Y[-1])
            back = section_height(X1, Y1, co)
            assert back == pytest.approx(Y0, abs=1e-9)
            level = float(co.H(math.pi, back, np))
            assert level == pytest.approx(float(traj.H[0]), abs=1e-12)

    def test_asymptote_bound_orbit_has_no_crossing(self, fig1_coeffs):
        co = fig1_coeffs
        from shearwave import find_critical_points
        y_saddle = find_critical_points(co)[0].Y
        assert section_height(0.0, y_saddle + 1.0, co) is None

    def test_trajectory_layer_is_tagged(self, fig2_coeffs):
        traj = integrate_steady(2.0, 0.03, fig2_coeffs, 1.0)
        assert traj.layer == "vortex"
        bed = integrate_steady(math.pi, 0.0, fig2_coeffs, 1.0)
        assert bed.layer == "bed_adjacent"

    def test_loop_around_a_center_on_x0_is_a_vortex(self):
        # Sweep-box case 42 has a center at (0, 0.00199): the level graph of
        # a start near it meets X = 0 at both ends and never X = pi.  A
        # start on X = pi below the center transits.
        from make_reference_portrait import sweep_cases
        h, k, a, omega, branch = sweep_cases()[42]
        co, _ = SteadyCoeffs.from_params(
            WaveParams.solve(G, h, k, omega, a=a, branch=branch)).normalized()
        for X0, Y0 in ((0.0, 0.001), (0.3, 0.002)):
            traj = integrate_steady(X0, Y0, co, 200.0)
            assert section_height(X0, Y0, co) is None
            assert traj.layer == "vortex"
            assert np.max(np.abs(traj.X)) < 0.5   # the direct integration agrees
        assert integrate_steady(math.pi, 0.001, co, 1.0).layer == "internal_wave"

    def test_transit_time_of_a_trajectory_from_its_section_height(self, fig2_coeffs):
        co = fig2_coeffs
        traj = integrate_steady(math.pi, 0.003, co, 2.0, rtol=1e-12, atol=1e-14)
        Y_pi = section_height(float(traj.X[-1]), float(traj.Y[-1]), co)
        tau_from_traj = transit_time_tau(Y_pi, co)
        tau_from_level = transit_time_tau(0.003, co)
        assert tau_from_traj == pytest.approx(tau_from_level, rel=1e-9)
        vortex_traj = integrate_steady(math.pi, 0.02, co, 2.0)
        Y_pi = section_height(float(vortex_traj.X[-1]), float(vortex_traj.Y[-1]), co)
        assert transit_time_tau(Y_pi, co) is None


class TestLayers:
    def test_boundaries_and_layer_map(self, fig2_coeffs):
        co = fig2_coeffs
        b = layer_boundaries(co)
        assert b["Y_lower"] < b["Y_P1"] < b["Y_upper"] < b["Y_P2"]
        assert classify_layer(0.0, co) == "bed_adjacent"
        assert classify_layer(b["Y_lower"] / 2, co) == "internal_wave"
        assert classify_layer(b["Y_P1"], co) == "vortex"
        assert classify_layer((b["Y_upper"] + b["Y_P2"]) / 2, co) == "surface_wave"
        assert classify_layer(b["Y_P2"] + 1.0, co) == "unbounded"

    def test_single_saddle_regimes(self, fig1_coeffs):
        co = fig1_coeffs
        b = layer_boundaries(co)
        assert classify_layer(b["Y_lower"] / 2, co) == "internal_wave"
        assert classify_layer(b["Y_P0"] + 1.0, co) == "unbounded"


#: Sweep-sampler scenarios (``random.Random(2026)``, cases 53, 116 and 142)
#: whose critical points lie above Y_SEARCH_MAX = 20, with the top default
#: drift level: (h, k, a, omega, branch), Y0.
HIGH_CRITICAL_POINTS = {
    "case53": ((2.5708975609458276, 8.324420227820722, 0.014404693723133152,
                -3.48819541222382, "minus"), 21.499621241413017),
    "case116": ((3.431574006499603, 7.815082258397202, 0.0018314340874460205,
                 -9.265758034342484, "minus"), 26.80551359867166),
    "case142": ((4.056632526485536, 6.115289478642808, 0.00510602388664912,
                 -21.793750950992386, "minus"), 24.81386831506682),
}


class TestCriticalPointsAboveTheSearchCap:
    """The layers come from every critical point up to the integration
    guard, not only those below the portrait's default cap."""

    @pytest.mark.parametrize("case", sorted(HIGH_CRITICAL_POINTS))
    def test_surface_layer_runs_right_as_integration_shows(self, case):
        (h, k, a, omega, branch), Y0 = HIGH_CRITICAL_POINTS[case]
        p = WaveParams.solve(G, h, k, omega, a=a, branch=branch)
        co, _ = SteadyCoeffs.from_params(p).normalized()
        (report,) = [r for r in drift_profile(p, n=33) if r.Y0 == Y0]
        assert (report.layer, report.direction) == ("surface_wave", "always_forward")
        # Oracle: the orbit from (pi, Y0) runs right, with physical velocity
        # (dX/dt + f)/k > 0 throughout, and crosses X = 3*pi after tau.
        tau = event_crossing_time(Y0, co, 3.0 * math.pi, 1, rtol=1e-12,
                                  atol=1e-12, periods=100)
        assert report.tau == pytest.approx(tau, rel=1e-8)
        sol = solve_ivp(lambda t, z: (co.H_Y(z[0], z[1], np), -co.H_X(z[0], z[1], np)),
                        (0.0, tau), (math.pi, Y0), method="DOP853", rtol=1e-12,
                        atol=1e-12, dense_output=True)
        X, Y = sol.sol(np.linspace(0.0, tau, 2001))
        assert np.min(co.H_Y(X, Y, np) + co.f) > 0.0

    def test_level_above_a_high_saddle_escapes(self):
        # Case 7: a single saddle at Y = 70.06, the top level just above its
        # separatrix on X = pi, where the parent refused the profile.
        p = WaveParams.solve(G, 8.521899476120227, 8.268383081214612,
                             -0.6712305824637578, a=0.18662143492868533,
                             branch="plus")
        co, _ = SteadyCoeffs.from_params(p).normalized()
        report = drift_profile(p, n=33)[-1]
        assert (report.layer, report.direction) == ("unbounded", "forward")
        assert math.isnan(report.tau) and report.mean_speed == co.f / co.k
        # Oracle: the orbit never reaches X = 0 and climbs away.
        sol = solve_ivp(lambda t, z: (co.H_Y(z[0], z[1], np), -co.H_X(z[0], z[1], np)),
                        (0.0, 20 * 2.0 * math.pi / co.f), (math.pi, report.Y0),
                        method="DOP853", rtol=1e-12, atol=1e-12)
        assert np.min(sol.y[0]) > 0.0 and np.max(sol.y[1]) > report.Y0 + 10.0


class TestDrift:
    def test_bed_drifts_forward(self, fig1_coeffs):
        r = drift_per_period(0.0, fig1_coeffs)
        assert r.direction == "forward"
        assert r.drift_m > 0
        assert r.layer == "bed_adjacent"

    def test_wave_free_flow_is_closed(self):
        co = SteadyCoeffs(Ak=0.0, omega=0.0, f=0.5, k=1.0)
        r = drift_per_period(0.3, co)
        assert r.direction == "closed"
        assert r.drift_m == pytest.approx(0.0, abs=1e-14)

    def test_pure_shear_with_vorticity(self):
        # Without a wave the particle speed is -omega*y exactly; the drift
        # classification must reflect its sign at every height.
        co = SteadyCoeffs(Ak=0.0, omega=-2.0, f=0.5, k=1.0)
        slow = drift_per_period(0.1, co)     # below the wave speed level
        assert slow.direction == "forward"
        fast = drift_per_period(1.0, co)     # level outruns the wave
        assert fast.direction == "always_forward"
        assert fast.drift_m > 0
        backward = drift_per_period(0.1, SteadyCoeffs(Ak=0.0, omega=2.0,
                                                      f=0.5, k=1.0))
        assert backward.direction == "backward"

    def test_pure_shear_level_at_rest_in_the_steady_frame(self):
        # f + omega*Y0 = 0: the level moves with the wave and never transits;
        # the particle moves at exactly f/k.
        co = SteadyCoeffs(Ak=0.0, omega=-2.0, f=0.5, k=1.0)
        r = drift_per_period(0.25, co)
        assert math.isnan(r.tau) and math.isnan(r.drift_m)
        assert r.direction == "always_forward"
        assert r.mean_speed == co.f / co.k
        assert transit_time_tau(0.25, co) is None

    @pytest.mark.parametrize("omega, Y0, direction", [
        (-2.0, 0.1, "forward"),          # f + omega*Y0 > 0: leftward transit
        (2.0, 0.1, "backward"),
        (-2.0, 1.0, "always_forward"),   # f + omega*Y0 < 0: rightward transit
    ])
    def test_pure_shear_closed_forms(self, omega, Y0, direction):
        # Without a wave the steady X-speed is -(f + omega*Y0), so a transit
        # takes 2*pi/|f + omega*Y0|, and the particle moves at -omega*Y0/k.
        co = SteadyCoeffs(Ak=0.0, omega=omega, f=0.5, k=2.0)
        tau = 2 * math.pi / abs(co.f + omega * Y0)
        r = drift_per_period(Y0, co)
        assert r.direction == direction
        assert r.tau == pytest.approx(tau, rel=1e-15)
        assert transit_time_tau(Y0, co) == pytest.approx(tau, rel=1e-15)
        assert r.drift_m == pytest.approx(-omega * Y0 * tau / co.k, rel=1e-14)
        assert r.mean_speed == pytest.approx(-omega * Y0 / co.k, rel=1e-14)

    def test_direction_trichotomy_tolerance(self):
        from shearwave.drift import _trichotomy
        f = 0.5
        period = 2 * math.pi / f
        assert _trichotomy(period * (1 + 1e-13), f) == "closed"
        assert _trichotomy(period * (1 + 1e-9), f) == "forward"
        assert _trichotomy(period * (1 - 1e-9), f) == "backward"

    def test_vortex_center_straight_forward(self, fig2_coeffs):
        co = fig2_coeffs
        center = find_critical_points(co)[1]
        r = drift_per_period(center.Y, co)
        assert r.direction == "always_forward"
        assert r.mean_speed == pytest.approx(co.f / co.k, rel=1e-10)

    def test_vortex_orbit_advances_one_wavelength_per_loop(self, fig2_coeffs):
        co = fig2_coeffs
        r = drift_per_period(0.02, co)
        assert r.layer == "vortex"
        assert r.direction in ("forward", "always_forward")
        assert r.drift_m == pytest.approx(co.f * r.tau / co.k, rel=1e-12)

    def test_loop_periods_match_direct_integration(self, fig2_params):
        # Each vortex loop of the default profile against scipy's DOP853 at
        # rtol 1e-13: half a loop between the two X = pi crossings, doubled.
        co, _ = SteadyCoeffs.from_params(fig2_params).normalized()
        loops = [r for r in drift_profile(fig2_params, n=33)
                 if r.layer == "vortex" and math.isfinite(r.tau)]
        assert len(loops) >= 3
        for r in loops:
            direction = 1.0 if co.H_Y(math.pi, r.Y0, math) < 0.0 else -1.0
            half = event_crossing_time(r.Y0, co, math.pi, direction,
                                       1e-13, 1e-15, 1000.0)
            assert r.tau == pytest.approx(2.0 * half, rel=1e-9)

    @pytest.mark.parametrize("name", ["fig2", "fig4-right"])
    def test_loop_least_speed_and_direction_labels(self, name):
        # Each vortex loop of the 64-level profile: the least dX/dt is no
        # larger than a scan of the loop's graph finds, up to rounding, and
        # the label is always_forward exactly when a scipy run of one loop
        # keeps the physical velocity (dX/dt + f)/k positive.
        p = from_mapping(PRESETS[name]["params"])
        co, _ = SteadyCoeffs.from_params(p).normalized()
        b = layer_boundaries(co)
        loops = [r for r in drift_profile(p, n=64) if r.layer == "vortex"]
        assert len(loops) == 14
        for r in loops:
            H0 = co.H(math.pi, r.Y0, np)
            piece = (b["Y_P1"], b["Y_P2"]) if r.Y0 < b["Y_P1"] else (0.0, b["Y_P1"])
            other = brentq(lambda Y: co.H(math.pi, Y, np) - H0, *piece, xtol=1e-15)
            layer, _, Y1 = drift._orbit(math.pi, r.Y0, co)
            assert (layer, Y1) == ("vortex", pytest.approx(other, rel=1e-13))
            T, _ = drift._loop_period(r.Y0, Y1, co)
            least = co.H_Y(math.pi, min(r.Y0, Y1), math)
            Y = np.linspace(min(r.Y0, other), max(r.Y0, other), 20_001)
            G = (H0 + 0.5 * co.omega * Y * Y + co.f * Y) / (co.Ak * np.sinh(Y))
            scan = co.H_Y(np.arccos(np.clip(G, -1.0, 1.0)), Y, np)
            assert least <= scan.min() + 1e-14 * co.f
            sol = solve_ivp(lambda t, z: (co.H_Y(z[0], z[1], np), -co.H_X(z[0], z[1], np)),
                            (0.0, T), (math.pi, r.Y0), method="DOP853", rtol=1e-12,
                            atol=1e-12, dense_output=True)
            X, Y = sol.sol(np.linspace(0.0, T, 4001))
            forward_throughout = np.min(co.H_Y(X, Y, np)) > -co.f
            assert r.direction == ("always_forward" if forward_throughout else "forward")

    def test_surface_layer_always_forward(self, fig2_coeffs):
        r = drift_per_period(0.5, fig2_coeffs)
        assert r.layer == "surface_wave"
        assert r.direction == "always_forward"
        assert r.drift_m > 0

    def test_profile_spans_layers_all_forward(self, fig2_params):
        reports = drift_profile(fig2_params, n=48)
        layers = {r.layer for r in reports}
        assert {"internal_wave", "vortex", "surface_wave"} <= layers
        assert all(r.direction in ("forward", "always_forward") for r in reports)

    def test_positive_vorticity_band_drifts_backward(self, fig4_left_coeffs):
        reports = [drift_per_period(Y0, fig4_left_coeffs) for Y0 in (0.0, 1e-7, 0.05, 0.1)]
        assert reports[0].direction == "forward"
        assert reports[1].direction == "forward"
        assert reports[2].direction == "backward"
        assert reports[3].direction == "backward"


class TestClosedOrbit:
    def test_found_and_verified_for_large_positive_vorticity(self, fig4_left_params):
        orbit = find_closed_orbit(fig4_left_params)
        assert orbit is not None
        assert 0 < orbit.Y_level < 0.12
        assert orbit.verified
        assert orbit.x_close_err < 1e-10 * fig4_left_params.wavelength
        assert orbit.y_close_err < 1e-10 * fig4_left_params.h

    def test_absent_for_irrotational_waves(self, fig1_params):
        assert find_closed_orbit(fig1_params) is None


class TestFileFormats:
    def test_trajectory_rows(self, fig1_coeffs):
        traj = integrate_steady(math.pi, 0.5, fig1_coeffs, 1.0)
        rows = list(trajectory_csv_rows(traj))
        assert rows[0] == TRAJECTORY_HEADER
        assert len(rows) == len(traj.t) + 1
        assert len(rows[1].split(",")) == 6

    def test_drift_rows(self, fig2_params, fig2_coeffs):
        reports = [drift_per_period(Y0, fig2_coeffs) for Y0 in (0.0, 0.02)]
        rows = list(drift_csv_rows(reports, fig2_params.k))
        assert rows[0] == DRIFT_HEADER
        assert rows[1].endswith("forward,bed_adjacent")

    def test_read_seeds(self):
        text = "# seeds\n3.14 0.0\n0.0 0.5  # crest\n\n"
        assert read_seeds(text) == [(3.14, 0.0), (0.0, 0.5)]
        with pytest.raises(DomainError):
            read_seeds("1.0\n")
        with pytest.raises(DomainError, match="line 2"):
            read_seeds("0.0 0.5\n1 abc\n")

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from shearwave import (DomainError, NumericsError, SteadyCoeffs, UnsupportedConfig,
                       WaveParams, bifurcation_scan, branching_discriminant,
                       build_phase_portrait, classify_critical_point,
                       find_critical_points, from_mapping, trace_separatrix)
from shearwave.cli import PRESETS
from shearwave.phase import _saddle_arm_direction, portrait_svg
from shearwave.steady import isocline_roots

G = 9.81


def grid_bisect_roots(co, X, y_max=50.0, step=1e-4):
    """Brute-force oracle: sign scan of phi on a fine grid plus bisection."""
    ys = np.arange(0.0, y_max, step)
    vals = np.asarray(co.H_Y(X, ys, np), dtype=float)
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        roots.append(brentq(lambda y: float(co.H_Y(X, y, np)), ys[i], ys[i + 1],
                            xtol=1e-14, maxiter=200))
    return roots


class TestInfinityIsocline:
    def test_irrotational_single_root_closed_form(self, fig1_coeffs):
        co = fig1_coeffs
        roots = isocline_roots(0.0, co)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(math.acosh(co.f / co.Ak), rel=1e-12)

    def test_no_root_behind_the_crest_for_irrotational(self, fig1_coeffs):
        assert len(isocline_roots(3 * math.pi / 4, fig1_coeffs)) == 0

    def test_two_roots_against_grid_oracle(self, fig2_coeffs):
        co = fig2_coeffs
        for X in (2.0, 2.5, math.pi):
            roots = isocline_roots(X, co)
            oracle = grid_bisect_roots(co, X)
            assert len(roots) == len(oracle) == 2
            assert roots[0] < roots[1]
            np.testing.assert_allclose(roots, oracle, rtol=1e-9, atol=1e-10)

    def test_every_root_is_a_stagnation_of_x_velocity(self, fig2_coeffs):
        for X in np.linspace(-math.pi, math.pi, 29):
            for Y in isocline_roots(float(X), fig2_coeffs):
                dX = fig2_coeffs.H_Y(float(X), Y, np)
                assert abs(float(dX)) < 1e-10

    @pytest.mark.parametrize("omega, f", [(-6.0, 0.15), (-2.0, 3.0), (0.0, 2.0), (3.0, 0.5)])
    def test_zero_amplitude_isocline_is_the_shear_stagnation_height(self, omega, f):
        # With Ak = 0, phi = -omega*Y - f has one root, -f/omega, above the
        # bed exactly when omega < 0.
        co = SteadyCoeffs(0.0, omega, f, 1.0)
        want = [-f / omega] if omega < 0 else []
        for X in (0.0, 1.0, math.pi):
            assert isocline_roots(X, co) == want

    def test_symmetry_in_x(self, fig2_coeffs):
        for X in (0.4, 1.9, 2.8):
            plus = isocline_roots(X, fig2_coeffs)
            minus = isocline_roots(-X, fig2_coeffs)
            np.testing.assert_allclose(plus, minus, rtol=0, atol=1e-12)


class TestBranchingDiscriminant:
    def test_small_alpha_positive(self):
        assert branching_discriminant(1e-5, -6.0, 0.15) > 0

    def test_large_alpha_tends_to_minus_one(self):
        assert branching_discriminant(1e8, -6.0, 0.15) == pytest.approx(-1.0, abs=1e-6)

    def test_alpha_must_be_positive(self):
        with pytest.raises(DomainError):
            branching_discriminant(0.0, -6.0, 0.15)
        with pytest.raises(DomainError):
            branching_discriminant(-1.0, -6.0, 0.15)

    def test_sign_change_location_regression(self, fig2_coeffs):
        # Bisection oracle on [1e-6, 1e3] for the fig2 frequency; the
        # crossing is unique there and frozen as a regression value.
        f = fig2_coeffs.f
        lo, hi = 1e-6, 1e3
        assert branching_discriminant(lo, -6.0, f) > 0 > branching_discriminant(hi, -6.0, f)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if branching_discriminant(mid, -6.0, f) > 0:
                lo = mid
            else:
                hi = mid
        alpha_star = 0.5 * (lo + hi)
        assert alpha_star == pytest.approx(3.8927217577445816, rel=1e-9)
        # fig2 itself sits far inside the two-branch regime.
        assert fig2_coeffs.Ak < alpha_star


class TestCriticalPoints:
    def test_irrotational_single_saddle(self, fig1_coeffs):
        co = fig1_coeffs
        pts = find_critical_points(co)
        assert len(pts) == 1
        cp = pts[0]
        assert cp.label == "P0" and cp.kind == "saddle"
        assert cp.X == 0.0
        assert cp.Y == pytest.approx(math.acosh(co.f / co.Ak), abs=1e-10)

    def test_supercritical_three_points(self, fig2_coeffs):
        pts = find_critical_points(fig2_coeffs)
        assert [cp.kind for cp in pts] == ["saddle", "center", "saddle"]
        assert [cp.label for cp in pts] == ["P0", "P1", "P2"]
        p0, p1, p2 = pts
        assert p0.X == 0.0 and p1.X == p2.X == math.pi
        assert p1.Y < p2.Y

    def test_roots_match_brute_force_scan(self, fig2_coeffs):
        pts = find_critical_points(fig2_coeffs)
        got0 = [cp.Y for cp in pts if cp.X == 0.0]
        got_pi = [cp.Y for cp in pts if cp.X != 0.0]
        np.testing.assert_allclose(got0, grid_bisect_roots(fig2_coeffs, 0.0),
                                   rtol=1e-9)
        np.testing.assert_allclose(got_pi, grid_bisect_roots(fig2_coeffs, math.pi),
                                   rtol=1e-9)

    def test_rhs_residual_at_roots(self, fig2_coeffs):
        for cp in find_critical_points(fig2_coeffs):
            dX, dY = fig2_coeffs.H_Y(cp.X, cp.Y, np), -fig2_coeffs.H_X(cp.X, cp.Y, np)
            assert abs(float(dX)) < 1e-10
            assert abs(float(dY)) < 1e-10

    def test_wave_free_flow_has_no_morse_points(self):
        co = SteadyCoeffs(Ak=0.0, omega=-6.0, f=0.15, k=1.0)
        assert find_critical_points(co) == []

    def test_requires_normalized_coefficients(self, fig2_params):
        with pytest.raises(UnsupportedConfig):
            find_critical_points(SteadyCoeffs.from_params(fig2_params))


class TestClassification:
    def test_saddle_has_mixed_signs(self, fig2_coeffs):
        cp = find_critical_points(fig2_coeffs)[0]
        kind, eigs = classify_critical_point(cp.X, cp.Y, fig2_coeffs)
        assert kind == "saddle"
        assert eigs[0] * eigs[1] < 0

    def test_center_is_positive_definite(self, fig2_coeffs):
        cp = find_critical_points(fig2_coeffs)[1]
        kind, eigs = classify_critical_point(cp.X, cp.Y, fig2_coeffs)
        assert kind == "center"
        assert eigs[0] > 0 and eigs[1] > 0

    def test_matches_slope_of_phi_at_axis_points(self, fig2_coeffs):
        # On X in {0, pi} the Hessian is diagonal and the verdict reduces
        # to the sign of d(phi)/dY at the root.
        co = fig2_coeffs
        for cp in find_critical_points(co):
            slope = co.Ak * math.cos(cp.X) * math.sinh(cp.Y) - co.omega
            expect_center = (cp.X != 0.0) and slope > 0
            assert (cp.kind == "center") == expect_center

    def test_eigenvalues_against_finite_difference_hessian(self, fig2_coeffs):
        co = fig2_coeffs
        step = 1e-4  # second differences: balances truncation vs cancellation
        for cp in find_critical_points(co):
            X, Y = cp.X, cp.Y
            H = lambda a, b: float(co.H(a, b, np))
            hxx = (H(X + step, Y) - 2 * H(X, Y) + H(X - step, Y)) / step**2
            hyy = (H(X, Y + step) - 2 * H(X, Y) + H(X, Y - step)) / step**2
            hxy = (H(X + step, Y + step) - H(X + step, Y - step)
                   - H(X - step, Y + step) + H(X - step, Y - step)) / (4 * step**2)
            fd = np.linalg.eigvalsh(np.array([[hxx, hxy], [hxy, hyy]]))
            np.testing.assert_allclose(sorted(cp.hessian_eigs), fd,
                                       rtol=1e-6, atol=1e-6)

    def test_contract_error_off_a_critical_point(self, fig2_coeffs):
        with pytest.raises(DomainError):
            classify_critical_point(0.5, 1.0, fig2_coeffs)


class TestSeparatrixTracing:
    def test_level_audit(self, fig2_coeffs):
        pts = find_critical_points(fig2_coeffs)
        saddle = pts[0]
        for direction in ("unstable+", "stable+"):
            arm = trace_separatrix(saddle, fig2_coeffs, direction)
            levels = np.asarray(fig2_coeffs.H(arm.points[1:, 0], arm.points[1:, 1], np),
                                float)
            assert np.max(np.abs(levels - arm.H_level)) < 1e-8 * (1 + abs(arm.H_level))

    def test_irrotational_bounded_arm_reaches_the_strip_edge(self, fig1_coeffs):
        pts = find_critical_points(fig1_coeffs)
        arm = trace_separatrix(pts[0], fig1_coeffs, "stable+")
        assert arm.termination == "strip_boundary"
        x_end, y_end = arm.points[-1]
        assert x_end == pytest.approx(math.pi, abs=1e-12)
        assert 0 < y_end < pts[0].Y

    def test_supercritical_connectivity(self, fig2_coeffs):
        pts = find_critical_points(fig2_coeffs)
        p0, p1, p2 = pts
        lower = trace_separatrix(p0, fig2_coeffs, "stable+")
        upper = trace_separatrix(p0, fig2_coeffs, "unstable+")
        assert lower.points[-1][0] == pytest.approx(math.pi, abs=1e-12)
        assert lower.points[-1][1] < p1.Y
        assert upper.points[-1][0] == pytest.approx(math.pi, abs=1e-12)
        assert p1.Y < upper.points[-1][1] < p2.Y

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_arm_labels_follow_the_flow(self, name):
        """1e-7 from the saddle along an arm's tangent, the flow (H_Y, -H_X),
        in 40-digit mpmath, points away along unstable arms and back along
        stable ones; the drawn arm leaves along that tangent."""
        port = build_phase_portrait(from_mapping(PRESETS[name]["params"]))
        co = port.coeffs_normalized
        with mp.workdps(40):
            Ak, omega, f = mp.mpf(co.Ak), mp.mpf(co.omega), mp.mpf(co.f)
            for arm in port.separatrices:
                dx, dy = _saddle_arm_direction(arm.saddle, co, arm.direction)
                X = mp.mpf(arm.saddle.X) + mp.mpf("1e-7") * dx
                Y = mp.mpf(arm.saddle.Y) + mp.mpf("1e-7") * dy
                H_X = -Ak * mp.sin(X) * mp.sinh(Y)
                H_Y = Ak * mp.cos(X) * mp.cosh(Y) - omega * Y - f
                along = H_Y * dx - H_X * dy
                label = f"{name} {arm.saddle.label} {arm.direction}"
                assert (along > 0) == arm.direction.startswith("unstable"), label
                if len(arm.points) > 1:
                    (x0, y0), (x1, y1) = arm.points[0], arm.points[1]
                    assert (x1 - x0) * dx + (y1 - y0) * dy > 0, label

    def test_only_saddles_accepted(self, fig2_coeffs):
        center = find_critical_points(fig2_coeffs)[1]
        with pytest.raises(DomainError):
            trace_separatrix(center, fig2_coeffs, "unstable+")

    def test_a_center_labelled_saddle_is_refused(self, fig2_coeffs):
        # The kind check passes; the flow Jacobian has no real directions.
        center = find_critical_points(fig2_coeffs)[1]
        assert center.kind == "center"
        with pytest.raises(NumericsError, match="not a saddle"):
            trace_separatrix(center._replace(kind="saddle"), fig2_coeffs, "unstable+")

    def test_direction_names(self, fig1_coeffs):
        saddle = find_critical_points(fig1_coeffs)[0]
        with pytest.raises(DomainError):
            trace_separatrix(saddle, fig1_coeffs, "sideways")


class TestTrajectorySlopeBound:
    def test_slope_stays_small_in_a_high_band(self, fig2_coeffs):
        # Band construction for the two-branch regime: pick Y* and width
        # delta with |omega|*Y* > 1 + f + delta and Ak*cosh(Y* + delta)
        # < delta/pi; then dY/dX along the flow stays in (0, delta/pi)
        # inside [0, pi] x [Y*, Y* + delta].
        co = fig2_coeffs
        y_star, delta = 0.5, 1.0
        assert -co.omega * y_star > 1 + co.f + delta
        assert co.Ak * math.cosh(y_star + delta) < delta / math.pi
        X = np.linspace(0.01, math.pi - 0.01, 60)
        Y = np.linspace(y_star, y_star + delta, 25)
        XX, YY = np.meshgrid(X, Y)
        dX, dY = co.H_Y(XX, YY, np), -co.H_X(XX, YY, np)
        slope = np.asarray(dY, float) / np.asarray(dX, float)
        assert np.all(slope > 0)
        assert np.all(slope < delta / math.pi)


class TestBifurcationScan:
    def test_nonnegative_vorticity_has_one_point(self):
        scan = bifurcation_scan(G, 1.0, 1.0, 0.01, 0.0, 3.0, 7)
        assert all(row.count == 1 for row in scan.rows)
        assert scan.omega_star is None

    def test_guards_are_reported_once_for_the_swept_vorticities(self):
        # a/h = 0.5 raises the amplitude guard at every vorticity; the solves
        # that refine the transition are not swept, so they are not counted.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scan = bifurcation_scan(G, 1.0, 1.0, 0.5, 0.0, -6.0, 61)
        assert scan.omega_star is not None
        assert [str(w.message) for w in caught] == [
            "61 of the swept vorticities exceed a guard, the first at omega = 0.0: "
            "a/h = 0.5 exceeds 0.1; the linear solution degrades as O(a^2)"]

    def test_monotone_jump_and_transition(self):
        scan = bifurcation_scan(G, 1.0, 1.0, 0.01, 0.0, -6.0, 25)
        counts = [row.count for row in scan.rows]
        assert counts[0] == 1 and counts[-1] == 3
        jump = counts.index(3)
        assert all(c == 1 for c in counts[:jump])
        assert all(c == 3 for c in counts[jump:])
        assert scan.omega_star is not None
        assert scan.rows[jump].omega < scan.omega_star < scan.rows[jump - 1].omega

    def test_transition_matches_phi_maximum_bisection(self):
        # Independent oracle: bisection on the numerically maximized
        # phi(Y; X=pi), located by bounded scalar minimization rather than
        # the closed-form stationary point.
        scan = bifurcation_scan(G, 1.0, 1.0, 0.01, 0.0, -6.0, 61)

        def phi_max(omega):
            p = WaveParams.solve(G, 1.0, 1.0, omega, a=0.01, branch="plus")
            co, _ = SteadyCoeffs.from_params(p).normalized()
            res = minimize_scalar(lambda y: -float(co.H_Y(math.pi, y, np)),
                                  bounds=(0.0, 30.0), method="bounded",
                                  options={"xatol": 1e-12})
            return -res.fun

        lo, hi = -2.0, -0.5
        assert phi_max(hi) < 0 < phi_max(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if phi_max(mid) > 0:
                lo = mid
            else:
                hi = mid
        omega_star_oracle = 0.5 * (lo + hi)
        assert abs(scan.omega_star - omega_star_oracle) < 1e-6

    def test_deep_negative_with_small_amplitude(self):
        scan = bifurcation_scan(G, 1.0, 1.0, 0.01, -5.0, -6.0, 3)
        assert all(row.count == 3 for row in scan.rows)
        assert all(row.kinds == ("saddle", "center", "saddle") for row in scan.rows)


class TestBuildPhasePortrait:
    def test_irrotational_structure(self, fig1_params):
        port = build_phase_portrait(fig1_params)
        assert len(port.critical_points) == 1
        assert port.critical_points[0].kind == "saddle"
        assert len(port.separatrix_groups) == 2
        terminations = sorted({arm.termination for arm in port.separatrices})
        assert terminations == ["strip_boundary", "ymax"]
        labels = {br.label for br in port.isoclines}
        assert labels == {"gamma"}
        assert not port.shifted

    def test_supercritical_structure(self, fig2_params):
        port = build_phase_portrait(fig2_params)
        kinds = [cp.kind for cp in port.critical_points]
        assert kinds == ["saddle", "center", "saddle"]
        assert port.shifted
        assert port.regime.crest_shift == "X=pi"
        assert {br.label for br in port.isoclines} == {"Y1", "Y2"}
        y1 = next(br for br in port.isoclines if br.label == "Y1")
        y2 = next(br for br in port.isoclines if br.label == "Y2")
        assert y1.monotonicity == "increasing"
        assert y2.monotonicity == "decreasing"

    def test_isocline_monotonicity_samplewise(self, fig2_params):
        port = build_phase_portrait(fig2_params)
        y1 = next(br for br in port.isoclines if br.label == "Y1")
        half = y1.samples[y1.samples[:, 0] >= 0.0]
        assert np.all(np.diff(half[:, 1]) > -1e-12)
        y2 = next(br for br in port.isoclines if br.label == "Y2")
        half2 = y2.samples[y2.samples[:, 0] > math.pi / 2]
        assert np.all(np.diff(half2[:, 1]) < 1e-12)

    def test_flat_wave_portrait(self):
        p = WaveParams.solve(G, 1.0, 1.0, 1.0, a=0.0)
        port = build_phase_portrait(p)
        assert port.critical_points == []
        assert port.separatrices == []

    def test_svg_render(self, fig2_params):
        port = build_phase_portrait(fig2_params)
        svg = portrait_svg(port)
        assert svg.startswith("<svg ")
        assert "stroke-dasharray" in svg     # dashed isoclines
        assert svg.count("<circle") == 1     # one center marker
        assert portrait_svg(port) == svg     # deterministic

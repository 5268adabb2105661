import math

import numpy as np
import pytest

from shearwave import (DomainError, SteadyCoeffs, WaveParams, field_identity_residuals,
                       in_fluid, pressure, surface, velocity)
from shearwave.drift import _scalar_rhs
from shearwave.fields import field_grid_rows

G = 9.81


class TestVelocity:
    def test_bed_velocity_exactly_zero(self, fig2_params):
        t = np.linspace(0, 10, 25)
        x = np.linspace(-5, 5, 25)
        _, v = velocity(t, x, 0.0, fig2_params)
        assert np.all(v == 0.0)

    def test_zero_amplitude_is_pure_shear(self):
        p = WaveParams.solve(G, 1.0, 1.0, -3.0, a=0.0, branch="minus")
        u, v = velocity(0.7, 0.3, 0.6, p)
        assert float(u) == pytest.approx(3.0 * 0.6, rel=1e-14)
        assert float(v) == 0.0

    def test_crest_value(self, fig2_params):
        p = fig2_params
        u, v = velocity(0.0, 0.0, p.h, p)
        expected_u = -p.omega * p.h + p.A * math.cosh(p.k * p.h)
        assert float(u) == pytest.approx(expected_u, rel=1e-14)
        assert float(v) == pytest.approx(0.0, abs=1e-16)

    def test_periodic_in_x(self, fig2_params):
        p = fig2_params
        u1, v1 = velocity(0.3, 0.4, 0.5, p)
        u2, v2 = velocity(0.3, 0.4 + p.wavelength, 0.5, p)
        assert float(u1) == pytest.approx(float(u2), rel=1e-12)
        assert float(v1) == pytest.approx(float(v2), rel=1e-12, abs=1e-15)

    def test_depends_on_phase_only(self, fig1_params):
        # Same k*x - f*t, same fields.
        p = fig1_params
        u1, v1 = velocity(0.0, 1.0, 0.5, p)
        dt = 0.37
        u2, v2 = velocity(dt, 1.0 + p.c * dt, 0.5, p)
        assert float(u1) == pytest.approx(float(u2), rel=1e-12)
        assert float(v1) == pytest.approx(float(v2), rel=1e-12)

    def test_guards(self, fig1_params):
        with pytest.raises(DomainError):
            velocity(0.0, 0.0, -0.01, fig1_params)
        with pytest.raises(DomainError):
            velocity(0.0, 0.0, 710.0, fig1_params)


class TestPressure:
    def test_hydrostatic_when_flat(self):
        p = WaveParams.solve(G, 1.0, 1.0, 1.5, a=0.0)
        assert float(pressure(0.0, 0.0, p.h, p)) == pytest.approx(0.0, abs=1e-14)
        assert float(pressure(0.0, 2.0, 0.0, p)) == pytest.approx(G * p.h, rel=1e-14)

    def test_irrotational_reduction(self, fig1_params):
        # With omega = 0 the wave part collapses to
        # a*g*cos(theta)*cosh(k*y)/cosh(k*h) once the dispersion relation
        # is substituted.
        p = fig1_params
        rng = np.random.default_rng(7)
        for _ in range(100):
            t = rng.uniform(0, 10)
            x = rng.uniform(-10, 10)
            y = rng.uniform(0, p.h)
            wave = float(pressure(t, x, y, p)) - G * (p.h - y)
            theta = p.k * x - p.f * t
            expected = p.a * G * math.cos(theta) * math.cosh(p.k * y) / math.cosh(p.k * p.h)
            assert wave == pytest.approx(expected, rel=1e-10, abs=1e-13)


class TestSurface:
    def test_levels(self, fig1_params):
        p = fig1_params
        assert float(surface(0.0, 0.0, p)) == p.h + p.a           # crest
        x_trough = math.pi / p.k
        assert float(surface(0.0, x_trough, p)) == pytest.approx(p.h - p.a, rel=1e-14)
        flat = WaveParams.solve(G, 1.0, 1.0, 0.0, a=0.0)
        assert float(surface(0.3, 0.9, flat)) == flat.h

    def test_in_fluid_flag(self, fig1_params):
        p = fig1_params
        assert bool(in_fluid(0.0, 0.0, p.h + p.a / 2, p))
        assert not bool(in_fluid(0.0, 0.0, p.h + 2 * p.a, p))
        assert not bool(in_fluid(0.0, 0.0, -0.01, p))


class TestSteadySystem:
    def test_bed_line_invariant(self, fig2_coeffs):
        co = fig2_coeffs
        dX, dY = co.H_Y(1.1, 0.0, np), -co.H_X(1.1, 0.0, np)
        assert float(dY) == 0.0
        assert float(dX) == pytest.approx(co.Ak * math.cos(1.1) - co.f, rel=1e-14)

    def test_rhs_is_hamiltonian_flow(self, fig2_coeffs):
        rng = np.random.default_rng(13)
        X = rng.uniform(-math.pi, math.pi, 2000)
        Y = rng.uniform(0.0, 8.0, 2000)
        rhs = _scalar_rhs(fig2_coeffs)  # the flow both integrators step
        dX, dY = np.array([rhs(x, y) for x, y in zip(X.tolist(), Y.tolist())]).T
        dHdX, dHdY = fig2_coeffs.H_X(X, Y, np), fig2_coeffs.H_Y(X, Y, np)
        assert np.max(np.abs(dX - dHdY)) < 1e-12
        assert np.max(np.abs(dY + dHdX)) < 1e-12

    def test_hamiltonian_special_values(self, fig2_coeffs):
        co = fig2_coeffs
        assert float(co.H(0.87, 0.0, np)) == 0.0
        Y = 1.7
        expected = -0.5 * co.omega * Y * Y - co.f * Y
        assert float(co.H(math.pi / 2, Y, np)) == pytest.approx(
            expected, rel=1e-12)

    def test_gradient_matches_finite_differences_second_order(self, fig2_coeffs):
        co = fig2_coeffs
        X0, Y0 = 0.83, 1.21

        def fd_error(step):
            gx = (float(co.H(X0 + step, Y0, np))
                  - float(co.H(X0 - step, Y0, np))) / (2 * step)
            gy = (float(co.H(X0, Y0 + step, np))
                  - float(co.H(X0, Y0 - step, np))) / (2 * step)
            ax, ay = co.H_X(X0, Y0, np), co.H_Y(X0, Y0, np)
            return math.hypot(gx - float(ax), gy - float(ay))

        e1, e2 = fd_error(1e-3), fd_error(5e-4)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_critical_point_gradient_vanishes(self, fig2_coeffs):
        from shearwave import find_critical_points
        cp = find_critical_points(fig2_coeffs)[0]
        gx, gy = fig2_coeffs.H_X(cp.X, cp.Y, np), fig2_coeffs.H_Y(cp.X, cp.Y, np)
        assert abs(float(gx)) < 1e-12
        assert abs(float(gy)) < 1e-12


class TestFieldIdentities:
    def test_analytic_residuals_vanish(self, fig2_params):
        rng = np.random.default_rng(17)
        t = rng.uniform(0, 20, 500)
        x = rng.uniform(-20, 20, 500)
        y = rng.uniform(0, 1.0, 500)
        res = field_identity_residuals(t, x, y, fig2_params)
        assert np.max(np.abs(res.div)) == 0.0
        assert np.max(np.abs(res.curl_defect)) == 0.0
        assert np.max(np.abs(res.bed_v)) == 0.0
        assert np.max(np.abs(res.kinematic_defect)) < 1e-12
        assert np.max(np.abs(res.dynamic_defect)) < 1e-9 * fig2_params.g * fig2_params.a

    def test_divergence_and_curl_by_finite_differences(self, fig2_params):
        p = fig2_params
        rng = np.random.default_rng(19)
        step = 1e-5
        for _ in range(50):
            t = rng.uniform(0, 5)
            x = rng.uniform(-5, 5)
            y = rng.uniform(0.1, 0.9)
            ux = (float(velocity(t, x + step, y, p)[0])
                  - float(velocity(t, x - step, y, p)[0])) / (2 * step)
            vy = (float(velocity(t, x, y + step, p)[1])
                  - float(velocity(t, x, y - step, p)[1])) / (2 * step)
            vx = (float(velocity(t, x + step, y, p)[1])
                  - float(velocity(t, x - step, y, p)[1])) / (2 * step)
            uy = (float(velocity(t, x, y + step, p)[0])
                  - float(velocity(t, x, y - step, p)[0])) / (2 * step)
            assert abs(ux + vy) < 1e-10
            assert abs((vx - uy) - p.omega) < 1e-10

    def test_dynamic_defect_grows_linearly_with_speed_error(self, fig1_params):
        p = fig1_params

        def max_defect(c_factor):
            bad = WaveParams(g=p.g, h=p.h, a=p.a, k=p.k, omega=p.omega,
                             c=c_factor * p.c, branch=p.branch)
            t = np.zeros(64)
            x = np.linspace(0, p.wavelength, 64)
            res = field_identity_residuals(t, x, np.full(64, 0.5), bad)
            return float(np.max(np.abs(res.dynamic_defect)))

        d_small, d_large = max_defect(1.025), max_defect(1.05)
        assert d_large > 1e-3 * p.g * p.a
        assert d_large / d_small == pytest.approx(2.0, rel=0.15)


class TestGridExport:
    def test_rows_format(self, fig1_params):
        p = fig1_params
        rows = list(field_grid_rows(p, 0.0, [0.0, 1.0], [0.0, p.h + p.a / 2, 2 * p.h]))
        assert rows[0] == "x,y,t,u,v,P,eta_flag"
        assert len(rows) == 1 + 2 * 3
        body = [r.split(",") for r in rows[1:]]
        assert body[0][-1] == "inside"     # bed under the crest
        assert body[2][-1] == "outside"    # above the surface
        # 17 significant digits on a non-terminating value
        assert any("." in field and len(field.split(".")[1].rstrip("0")) > 10
                   for field in body[1][:6])

    def test_deterministic(self, fig1_params):
        p = fig1_params
        a = "\n".join(field_grid_rows(p, 0.2, np.linspace(0, 6, 5), np.linspace(0, 1, 5)))
        b = "\n".join(field_grid_rows(p, 0.2, np.linspace(0, 6, 5), np.linspace(0, 1, 5)))
        assert a == b


class TestSteadyCoeffs:
    def test_from_params_and_normalization(self, fig2_params):
        co = SteadyCoeffs.from_params(fig2_params)
        assert co.Ak < 0
        co_n, shifted = co.normalized()
        assert shifted
        assert co_n.Ak == -co.Ak
        assert (co_n.omega, co_n.f, co_n.k) == (co.omega, co.f, co.k)

    def test_already_normalized(self, fig1_params):
        co = SteadyCoeffs.from_params(fig1_params)
        co_n, shifted = co.normalized()
        assert not shifted
        assert co_n == co


def _largest_accepted_height(k):
    """The largest float y with k*y <= 700, the hyperbolic guard's bound."""
    y = 700.0 / k
    while k * y > 700.0:
        y = math.nextafter(y, 0.0)
    while k * math.nextafter(y, math.inf) <= 700.0:
        y = math.nextafter(y, math.inf)
    return y


# The field functions check k*max(y) once y >= 0 holds, in place of
# max|k*y| over the array: the accepted heights end where k*y passes 700.
@pytest.mark.parametrize("k", [1.0, 0.12, 0.3, 3.0, 7.1])
def test_the_hyperbolic_guard_ends_at_the_last_height_with_k_y_at_most_700(k):
    p = WaveParams.solve(G, 1.0, k, -6.0, a=0.01, branch="minus")
    y_ok = _largest_accepted_height(k)
    y_bad = math.nextafter(y_ok, math.inf)
    assert k * y_ok <= 700.0 < k * y_bad
    calls = (lambda y: velocity(0.0, 0.0, y, p), lambda y: [pressure(0.0, 0.0, y, p)],
             lambda y: field_identity_residuals(0.0, 0.0, y, p))
    for call in calls:
        for y in (y_ok, [y_ok, 0.0], [0.5, y_ok, 0.25]):
            assert all(np.all(np.isfinite(v)) for v in call(y))
        for y in (y_bad, [y_bad, 0.0], [0.5, y_bad, y_ok]):
            with pytest.raises(DomainError) as exc:
                call(y)
            assert str(exc.value) == ("hyperbolic argument exceeds 700; "
                                      "evaluation would overflow")

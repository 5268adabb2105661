import json
import math

import numpy as np
import pytest

from shearwave import (DomainError, UnsupportedConfig, WaveParams,
                       classify_regime, dispersion_residual, from_json_str,
                       from_kv, from_mapping, solve_dispersion, to_json_str,
                       to_kv)
from shearwave.params import HYPERBOLIC_ARG_MAX, OMEGA_MAX, SCALE_MIN

G = 9.81


class TestSolveDispersion:
    def test_irrotational_reduces_to_classical_form(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = rng.uniform(1.0, 30.0)
            h = rng.uniform(0.2, 20.0)
            k = rng.uniform(0.05, 5.0)
            c = solve_dispersion(g, h, k, 0.0)
            assert c == pytest.approx(math.sqrt(g * math.tanh(k * h) / k), rel=1e-12)
            c_minus = solve_dispersion(g, h, k, 0.0, branch="minus")
            assert c_minus == pytest.approx(-c, rel=1e-12)

    def test_reference_value(self):
        # Independent evaluation of the closed form at g=9.81, h=k=1.
        assert solve_dispersion(G, 1.0, 1.0, 0.0) == pytest.approx(
            2.7333566671632985, rel=1e-14)

    def test_strong_counter_current_minus_branch(self):
        # Right-going wave against a strong shear current: small positive c
        # with c + h*omega well below zero.
        c = solve_dispersion(G, 1.0, 1.0, -6.0, branch="minus")
        t = math.tanh(1.0)
        expected = 6.0 + 0.5 * (-6.0 * t - math.sqrt(4 * G * t + 36.0 * t * t))
        assert c == pytest.approx(expected, rel=1e-14)
        assert c == pytest.approx(0.1527, abs=5e-5)
        assert c + 1.0 * (-6.0) < 0

    def test_surface_velocity_form_unit_wavenumber(self):
        # With k = 1 the relation reads c - u0 = (omega*tanh(h)
        # + sqrt(4*g*tanh(h) + omega^2*tanh(h)^2))/2 where u0 = s*sqrt(gh)
        # - h*omega is the surface speed of the undisturbed current.
        for s, omega in [(0.0, 2.0), (0.3, -1.0), (-0.2, 0.7)]:
            h = 1.4
            c = solve_dispersion(G, h, 1.0, omega, s=s, branch="plus")
            u0 = s * math.sqrt(G * h) - h * omega
            th = math.tanh(h)
            rhs = 0.5 * (omega * th + math.sqrt(4 * G * th + (omega * th) ** 2))
            assert c - u0 == pytest.approx(rhs, rel=1e-13)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            solve_dispersion(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            solve_dispersion(G, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            solve_dispersion(G, 1.0, 1.0, 0.0, branch="middle")

    def test_huge_vorticity_is_refused_by_name(self):
        # (omega*tanh(kh))**2 overflows above about 1.3e154; below that the
        # speed is finite.
        assert math.isfinite(solve_dispersion(G, 1.0, 1.0, 1e154))
        for omega in (1e155, -1e200, 1.7e308):
            with pytest.raises(DomainError, match="omega"):
                solve_dispersion(G, 1.0, 1.0, omega)
        with pytest.raises(DomainError, match="omega"):
            WaveParams.solve(G, 1.0, 1.0, -1e200, a=0.01, branch="minus")


class TestDispersionResidual:
    def test_solved_parameters_have_tiny_residual(self):
        rng = np.random.default_rng(2)
        for branch in ("plus", "minus"):
            for _ in range(100):
                p = WaveParams.solve(rng.uniform(0.5, 30.0), rng.uniform(0.1, 10.0),
                                     rng.uniform(0.05, 5.0), rng.uniform(-10, 10),
                                     a=0.0, branch=branch)
                assert dispersion_residual(p) < 1e-10

    def test_perturbed_speed_is_detected(self, fig1_params):
        p = fig1_params
        bad = WaveParams(g=p.g, h=p.h, a=p.a, k=p.k, omega=p.omega,
                         c=1.1 * p.c, branch=p.branch)
        assert dispersion_residual(bad) > 1e-3

    def test_irrotational_identity(self):
        c = math.sqrt(G * math.tanh(2.0 * 0.7) / 0.7)
        p = WaveParams(g=G, h=2.0, a=0.0, k=0.7, omega=0.0, c=c)
        assert dispersion_residual(p) < 1e-12


class TestSpeedBoundsAndBranchRule:
    def test_branch_rule_sign_and_margin(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = rng.uniform(0.5, 30.0)
            h = rng.uniform(0.1, 10.0)
            k = rng.uniform(0.05, 5.0)
            omega = rng.uniform(-10, 10)
            branch = "plus" if rng.random() < 0.5 else "minus"
            c = solve_dispersion(g, h, k, omega, branch=branch)
            q = c + h * omega
            assert (q > 0) == (branch == "plus")
            assert abs(q) > 1e-8 * math.sqrt(g * h)

    def test_same_sign_speed_bound(self):
        # When speed and vorticity agree in sign, |c| stays below sqrt(g*h).
        rng = np.random.default_rng(4)
        kept = 0
        while kept < 300:
            g = rng.uniform(0.5, 30.0)
            h = rng.uniform(0.1, 10.0)
            k = rng.uniform(0.05, 5.0)
            omega = rng.uniform(-12, 12)
            branch = "plus" if rng.random() < 0.5 else "minus"
            c = solve_dispersion(g, h, k, omega, branch=branch)
            if c == 0 or omega == 0 or math.copysign(1, c) != math.copysign(1, omega):
                continue
            kept += 1
            assert abs(c) < math.sqrt(g * h)

    def test_relative_speed_increases_with_vorticity_on_plus_branch(self):
        omegas = np.linspace(-10, 10, 81)
        q = [solve_dispersion(G, 1.3, 0.8, w) + 1.3 * w for w in omegas]
        assert np.all(np.diff(q) > 0)


class TestClassifyRegime:
    def test_irrotational(self, fig1_params):
        r = classify_regime(fig1_params)
        assert (r.vorticity_sign, r.crest_shift, r.supercritical) == \
            ("zero", "X=0", False)

    def test_supercritical_negative(self, fig2_params):
        r = classify_regime(fig2_params)
        assert r.vorticity_sign == "negative"
        assert r.crest_shift == "X=pi"
        assert r.supercritical
        assert r.branching_positive

    def test_positive_vorticity_plus_branch(self):
        p = WaveParams.solve(G, 1.0, 1.0, 2.0, a=0.01, branch="plus")
        r = classify_regime(p)
        assert (r.vorticity_sign, r.crest_shift, r.supercritical) == \
            ("positive", "X=0", False)

    def test_left_going_rejected(self):
        p = WaveParams.solve(G, 1.0, 1.0, 0.0, branch="minus")
        with pytest.raises(UnsupportedConfig):
            classify_regime(p)

    def test_nonzero_shear_offset_rejected(self):
        # No set with s != 0 reaches classify_regime: solve refuses it.
        with pytest.raises(UnsupportedConfig, match=r"^s = 0\.4 "):
            WaveParams.solve(G, 1.0, 1.0, 0.0, s=0.4, branch="plus")


class TestWaveParamsConstruction:
    def test_derived_f_and_A(self, fig2_params):
        p = fig2_params
        assert p.f == p.k * p.c
        expected_A = p.a * (p.f + p.k * p.h * p.omega) / math.sinh(p.k * p.h)
        assert p.A == pytest.approx(expected_A, rel=1e-15)
        assert p.A < 0  # counter-current flips the wave coefficient

    def test_wave_speed_equal_to_current_rejected(self):
        # c + h*omega = 0 is excluded by the closed-form speed; supplying
        # such a speed directly must fail construction.
        with pytest.raises(UnsupportedConfig):
            WaveParams(g=G, h=1.0, a=0.0, k=1.0, omega=-2.0, c=2.0)

    def test_branch_consistency_enforced(self):
        c = solve_dispersion(G, 1.0, 1.0, 0.0, branch="plus")
        with pytest.raises(UnsupportedConfig):
            WaveParams(g=G, h=1.0, a=0.0, k=1.0, omega=0.0, c=c, branch="minus")

    def test_amplitude_guard_flag(self):
        with pytest.warns(UserWarning, match="a/h"):
            p = WaveParams.solve(G, 1.0, 1.0, 0.0, a=0.2)
        assert p.amplitude_flag
        assert not p.validity_flag

    def test_vorticity_product_guard_flag(self):
        with pytest.warns(UserWarning, match="omega_nd"):
            p = WaveParams.solve(G, 1.0, 1.0, -12.0, a=0.09, branch="minus")
        assert p.validity_flag

    def test_guard_warnings_name_the_caller(self):
        base = WaveParams.solve(G, 1.0, 1.0, 0.0, a=0.01)
        builders = [
            lambda: WaveParams(g=G, h=1.0, a=0.5, k=1.0, omega=0.0, c=base.c),
            lambda: WaveParams.solve(G, 1.0, 1.0, 0.0, a=0.5),
            lambda: base._replace(a=0.5),
            lambda: WaveParams.solve(G, 1.0, 1.0, -12.0, a=0.09, branch="minus"),
        ]
        for build in builders:
            with pytest.warns(UserWarning) as record:
                build()
            assert record[0].filename == __file__

    def test_quiet_for_moderate_parameters(self, recwarn):
        WaveParams.solve(G, 1.0, 1.0, -6.0, a=0.01, branch="minus")
        assert not recwarn.list

    @pytest.mark.parametrize("key", ["g", "h", "a", "k", "omega", "s", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused_by_name(self, fig2_params, key, value):
        if key in WaveParams._fields:  # not s, which only solve takes
            with pytest.raises(DomainError, match=f"^{key} must be finite"):
                fig2_params._replace(**{key: value})
        if key != "c":
            solved = dict(g=G, h=1.0, k=1.0, omega=-6.0, a=0.01, s=0.0)
            solved[key] = value
            with pytest.raises(DomainError, match=f"^{key} must be finite"):
                WaveParams.solve(**solved, branch="minus")

    def test_scale_refusals_print_the_value_exactly(self):
        # Just past each limit, a value rounds to the limit at three digits.
        k = math.nextafter(SCALE_MIN, 0.0)
        with pytest.raises(DomainError) as exc:
            WaveParams(G, 1.0, 0.01, k, 0.0, 1.0)
        assert str(exc.value) == ("k, k*h and |f| = |k*c| must be at least 1e-300, "
                                  f"got {k!r}, {k!r} and {k!r}")
        omega = math.nextafter(OMEGA_MAX, math.inf)
        with pytest.raises(DomainError) as exc:
            WaveParams(G, 1.0, 0.01, 1.0, omega, 1.0)
        assert str(exc.value) == f"|omega| must be at most 1e+150, got {omega!r}"
        assert float(str(exc.value).rpartition(" ")[2]) > OMEGA_MAX
        k = math.nextafter(HYPERBOLIC_ARG_MAX, math.inf)
        with pytest.raises(UnsupportedConfig) as exc:
            WaveParams(G, 1.0, 0.01, k, 0.0, 1.0)
        assert str(exc.value) == f"k*h = {k!r} overflows the hyperbolic factors"

    def test_replace_validates(self, fig2_params):
        with pytest.raises(UnsupportedConfig):
            fig2_params._replace(branch="plus")
        assert fig2_params._replace(a=0.02).a == 0.02


class TestSerialization:
    def test_kv_round_trip(self, fig2_params):
        text = to_kv(fig2_params)
        back = from_kv(text)
        assert back == fig2_params

    def test_json_round_trip(self, fig2_params):
        back = from_json_str(to_json_str(fig2_params))
        assert back == fig2_params

    def test_stored_speed_is_ignored(self, fig1_params):
        mapping = json.loads(to_json_str(fig1_params))
        mapping["c"] = 999.0
        mapping["A"] = -5.0
        back = from_mapping(mapping)
        assert back.c == pytest.approx(fig1_params.c, rel=1e-15)

    def test_comments_and_spacing(self):
        text = "# scenario\ng = 9.81\nh= 1.0\nk =1.0 # rad/m\nomega = 0.0\n"
        p = from_kv(text)
        assert p.c == pytest.approx(2.7333566671632985, rel=1e-14)

    def test_unknown_key_rejected_when_strict(self):
        with pytest.raises(DomainError):
            from_kv("g = 9.81\nh = 1\nk = 1\nomega = 0\nbogus = 3\n")

    def test_malformed_line(self):
        with pytest.raises(DomainError):
            from_kv("g 9.81\n")

    def test_missing_required_key(self):
        with pytest.raises(DomainError):
            from_mapping({"g": 9.81, "h": 1.0, "k": 1.0})

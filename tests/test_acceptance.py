"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from shearwave import (SteadyCoeffs, WaveParams, bifurcation_scan,
                       build_phase_portrait, dispersion_residual,
                       drift_per_period, field_identity_residuals,
                       find_closed_orbit, find_critical_points, integrate_steady,
                       layer_boundaries, solve_dispersion, transit_time_tau)
from shearwave.cli import main
from shearwave.drift import _scalar_rhs

G = 9.81


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_dispersion_reduction():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        g = rng.uniform(0.5, 30.0)
        h = rng.uniform(0.1, 20.0)
        k = rng.uniform(0.05, 10.0)
        c = solve_dispersion(g, h, k, 0.0, s=0.0, branch="plus")
        assert c == pytest.approx(math.sqrt(g * math.tanh(k * h) / k), rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"100 irrotational draws match sqrt(g*tanh(kh)/k) to 1e-12 "
              f"({elapsed * 1e3:.0f} ms)")


def test_criterion_02_solvability_residual():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(1000):
        branch = "plus" if i % 2 == 0 else "minus"
        p = WaveParams.solve(rng.uniform(0.5, 30.0), rng.uniform(0.1, 10.0),
                             rng.uniform(0.05, 5.0), rng.uniform(-10.0, 10.0),
                             a=0.0, s=0.0, branch=branch)
        worst = max(worst, dispersion_residual(p))
    assert worst < 1e-10
    report(2, f"1000 solved parameter sets, worst residual {worst:.2e} < 1e-10")


def test_criterion_03_speed_bound():
    rng = np.random.default_rng(103)
    kept = 0
    violations = 0
    while kept < 1000:
        g = rng.uniform(0.5, 30.0)
        h = rng.uniform(0.1, 10.0)
        k = rng.uniform(0.05, 5.0)
        omega = rng.uniform(-12.0, 12.0)
        branch = "plus" if rng.random() < 0.5 else "minus"
        c = solve_dispersion(g, h, k, omega, s=0.0, branch=branch)
        if omega == 0 or c == 0 or math.copysign(1, c) != math.copysign(1, omega):
            continue
        kept += 1
        if abs(c) >= math.sqrt(g * h):
            violations += 1
    assert violations == 0
    report(3, "1000 same-sign draws all satisfy |c| < sqrt(g*h)")


def test_criterion_04_field_identities(fig1_params, fig2_params):
    rng = np.random.default_rng(104)
    for p in (fig1_params, fig2_params):
        n = 10000
        t = rng.uniform(0.0, 5.0 * 2 * math.pi / p.f, n)
        x = rng.uniform(-3 * p.wavelength, 3 * p.wavelength, n)
        y = rng.uniform(0.0, p.h, n)
        res = field_identity_residuals(t, x, y, p)
        assert np.max(np.abs(res.div)) < 1e-10
        assert np.max(np.abs(res.curl_defect)) < 1e-10
        assert np.max(np.abs(res.bed_v)) < 1e-10
        assert np.max(np.abs(res.kinematic_defect)) < 1e-10
        assert np.max(np.abs(res.dynamic_defect)) < 1e-9 * p.g * p.a
        bad = WaveParams(g=p.g, h=p.h, a=p.a, k=p.k, omega=p.omega,
                         c=1.05 * p.c, branch=p.branch)
        res_bad = field_identity_residuals(t, x, y, bad)
        assert np.max(np.abs(res_bad.dynamic_defect)) > 1e-3 * p.g * p.a
    report(4, "divergence/curl/bed/kinematic < 1e-10 at 1e4 points; dynamic "
              "defect < 1e-9*g*a solved and > 1e-3*g*a at 5% speed error")


def test_criterion_05_hamiltonian_structure(fig1_coeffs, fig2_coeffs,
                                            fig4_left_coeffs):
    rng = np.random.default_rng(105)
    X = rng.uniform(-math.pi, math.pi, 10000)
    Y = rng.uniform(0.0, 8.0, 10000)
    rhs = _scalar_rhs(fig2_coeffs)  # the flow both integrators step
    dX, dY = np.array([rhs(x, y) for x, y in zip(X.tolist(), Y.tolist())]).T
    gX, gY = fig2_coeffs.H_X(X, Y, np), fig2_coeffs.H_Y(X, Y, np)
    assert np.max(np.abs(dX - gY)) < 1e-12
    assert np.max(np.abs(dY + gX)) < 1e-12

    cases = [(fig1_coeffs, 2.0), (fig2_coeffs, 0.02), (fig2_coeffs, 0.5),
             (fig4_left_coeffs, 0.05)]
    worst = 0.0
    slowest = 0.0
    for co, Y0 in cases:
        t_end = 100 * 2 * math.pi / co.f
        start = time.perf_counter()
        traj = integrate_steady(math.pi, Y0, co, t_end)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        worst = max(worst, traj.h_drift_scaled)
        assert traj.h_drift_scaled < 1e-8
        assert elapsed < 10.0
    report(5, f"flow == H-gradient to 1e-12 at 1e4 points; worst scaled "
              f"H-drift over 100 periods {worst:.2e} (slowest run "
              f"{slowest:.2f} s)")


def _scan_roots(co, X):
    ys = np.arange(0.0, 50.0, 1e-4)
    vals = np.asarray(co.H_Y(X, ys, np), float)
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        roots.append(brentq(lambda y: float(co.H_Y(X, y, np)), ys[i], ys[i + 1],
                            xtol=1e-13, maxiter=200))
    return roots


def test_criterion_06_portrait_counts_and_kinds(fig1_params, fig1_coeffs,
                                                fig2_params, fig2_coeffs):
    port1 = build_phase_portrait(fig1_params)
    assert len(port1.critical_points) == 1
    cp = port1.critical_points[0]
    assert cp.kind == "saddle"
    assert cp.X == 0.0
    assert cp.Y == pytest.approx(math.acosh(fig1_coeffs.f / fig1_coeffs.Ak),
                                 abs=1e-10)
    oracle1 = _scan_roots(fig1_coeffs, 0.0) + _scan_roots(fig1_coeffs, math.pi)
    assert len(oracle1) == 1
    assert cp.Y == pytest.approx(oracle1[0], abs=1e-8)

    port2 = build_phase_portrait(fig2_params)
    kinds = [c.kind for c in port2.critical_points]
    assert kinds == ["saddle", "center", "saddle"]
    p0, p1, p2 = port2.critical_points
    assert p1.Y < p2.Y
    oracle2 = _scan_roots(fig2_coeffs, 0.0) + _scan_roots(fig2_coeffs, math.pi)
    np.testing.assert_allclose([p0.Y, p1.Y, p2.Y], oracle2, rtol=1e-8)
    report(6, "fig1: one saddle at (0, acosh(f/Ak)); fig2: saddle/center/"
              "saddle with Y(P1) < Y(P2); both match the sign-scan oracle")


def test_criterion_07_separatrix_fidelity(fig1_params, fig2_params):
    worst = 0.0
    for p in (fig1_params, fig2_params):
        port = build_phase_portrait(p)
        for arm in port.separatrices:
            levels = np.asarray(port.coeffs_normalized.H(
                arm.points[1:, 0], arm.points[1:, 1], np), float)
            err = np.max(np.abs(levels - arm.H_level)) / (1 + abs(arm.H_level))
            worst = max(worst, float(err))
            assert err < 1e-8
    port2 = build_phase_portrait(fig2_params)
    p0, p1, p2 = port2.critical_points
    lower = [a for a in port2.separatrices
             if a.saddle.label == "P0" and a.points[-1][0] > 3
             and a.points[-1][1] < p1.Y]
    upper = [a for a in port2.separatrices
             if a.saddle.label == "P0" and a.points[-1][0] > 3
             and p1.Y < a.points[-1][1] < p2.Y]
    assert len(lower) == 1 and len(upper) == 1
    report(7, f"all separatrix points on-level (worst scaled error {worst:.2e}"
              f" < 1e-8); fig2 connectivity: P0 -> X=pi below P1 and between "
              f"P1 and P2")


def test_criterion_08_bed_transit_time(fig2_coeffs):
    co = fig2_coeffs
    # Verify the closed form against the half-period quadrature first.
    oracle, _ = quad(lambda X: 2 * co.f / (co.f ** 2 - (co.Ak * math.cos(X)) ** 2),
                     -math.pi / 2, math.pi / 2, epsabs=1e-14, epsrel=1e-13)
    closed_form = 2 * math.pi / math.sqrt(co.f ** 2 - co.Ak ** 2)
    assert oracle == pytest.approx(closed_form, rel=1e-11)
    tau = transit_time_tau(0.0, co)
    assert tau == pytest.approx(closed_form, rel=1e-10)

    rng = np.random.default_rng(108)
    checked = 0
    while checked < 50:
        g = rng.uniform(1.0, 20.0)
        h = rng.uniform(0.3, 5.0)
        k = rng.uniform(0.2, 3.0)
        omega = rng.uniform(-3.0, 3.0)
        branch = "plus" if rng.random() < 0.5 else "minus"
        p = WaveParams.solve(g, h, k, omega, a=0.0, branch=branch)
        if p.c <= 0:
            continue
        a = 0.02 * h
        p = WaveParams.solve(g, h, k, omega, a=a, branch=branch)
        co_i, _ = SteadyCoeffs.from_params(p).normalized()
        if co_i.Ak == 0.0 or co_i.Ak >= co_i.f:
            continue
        tau_i = transit_time_tau(0.0, co_i)
        expected = 2 * math.pi / math.sqrt(co_i.f ** 2 - co_i.Ak ** 2)
        assert tau_i == pytest.approx(expected, rel=1e-10)
        assert tau_i > 2 * math.pi / co_i.f
        checked += 1
    report(8, "bed transit matches 2*pi/sqrt(f^2 - (Ak)^2) to 1e-10 and "
              "exceeds 2*pi/f on 50 wavy draws")


def test_criterion_09_all_forward_drift(fig2_params, fig2_coeffs):
    co = fig2_coeffs
    b = layer_boundaries(co)
    top = 0.999 * fig2_params.k * (fig2_params.h + fig2_params.a)
    eps = 1e-6
    levels = np.concatenate([
        np.linspace(eps, b["Y_lower"] - eps, 40),
        np.linspace(b["Y_lower"] + eps, b["Y_upper"] - eps, 60),
        np.linspace(b["Y_upper"] + eps, top, 100),
    ])
    assert len(levels) == 200
    layers_seen = set()
    for Y0 in levels:
        r = drift_per_period(float(Y0), co)
        layers_seen.add(r.layer)
        assert r.direction in ("forward", "always_forward")
    assert {"internal_wave", "vortex", "surface_wave"} <= layers_seen
    center = find_critical_points(co)[1]
    r = drift_per_period(center.Y, co)
    assert r.direction == "always_forward"
    assert r.mean_speed == pytest.approx(co.f / co.k, rel=1e-10)
    report(9, "200 levels across interior wave / vortex / surface wave all "
              "drift forward; vortex center speed = f/k to 1e-10")


def test_criterion_10_closed_orbit_for_large_positive_vorticity(fig4_left_params):
    start = time.perf_counter()
    p = fig4_left_params
    top = p.k * (p.h - p.a)
    levels = np.concatenate([[0.0], np.geomspace(1e-7 * top, 0.99 * top, 49)])
    drifts = [drift_per_period(float(Y0),
                               SteadyCoeffs.from_params(p).normalized()[0]).drift_m
              for Y0 in levels]
    signs = np.sign(drifts)
    assert signs[0] > 0
    assert np.any(signs < 0)
    orbit = find_closed_orbit(p)
    elapsed = time.perf_counter() - start
    assert orbit is not None
    assert 0.0 < orbit.Y_level < top
    assert orbit.x_close_err < 1e-10 * p.wavelength
    assert orbit.y_close_err < 1e-10 * p.h
    assert elapsed < 60.0
    report(10, f"drift changes sign inside the fluid; closed orbit at "
               f"Y = {orbit.Y_level:.3e} with closure errors "
               f"({orbit.x_close_err:.1e} m, {orbit.y_close_err:.1e} m) "
               f"in {elapsed:.1f} s")


def test_criterion_11_bifurcation_scan(fig2_params):
    p = fig2_params
    scan = bifurcation_scan(p.g, p.h, p.k, p.a, 0.0, p.omega, 61, branch="plus")
    counts = [row.count for row in scan.rows]
    jump = counts.index(3)
    assert all(c == 1 for c in counts[:jump])
    assert all(c == 3 for c in counts[jump:])
    assert scan.omega_star is not None

    def phi_max(omega):
        q = WaveParams.solve(p.g, p.h, p.k, omega, a=p.a, branch="plus")
        co, _ = SteadyCoeffs.from_params(q).normalized()
        res = minimize_scalar(lambda y: -float(co.H_Y(math.pi, y, np)),
                              bounds=(0.0, 30.0), method="bounded",
                              options={"xatol": 1e-12})
        return -res.fun

    lo, hi = scan.rows[jump].omega, scan.rows[jump - 1].omega
    assert phi_max(lo) > 0 > phi_max(hi)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if phi_max(mid) > 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert abs(scan.omega_star - oracle) < 1e-6
    report(11, f"census jumps monotonically 1 -> 3; omega* = "
               f"{scan.omega_star:.8f} matches the phi-maximum bisection "
               f"to 1e-6")


def test_criterion_12_determinism(tmp_path, capsys):
    jobs = {
        "fig1": [["portrait", "--format", "csv,json,svg"],
                 ["paths", "--periods", "2"]],
        "fig2": [["portrait"], ["drift", "--levels", "7"]],
        "fig3": [["bifurcation", "--steps", "13"]],
        "fig4-left": [["drift", "--levels", "5"]],
        "fig4-right": [["drift", "--levels", "5"]],
    }
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        for preset, commands in jobs.items():
            for command in commands:
                code = main(command + ["--preset", preset, "--out", str(out),
                                       "--quiet"])
                assert code == 0
    capsys.readouterr()
    total = 0
    for preset in jobs:
        names = sorted((outs[0] / preset).iterdir())
        names_b = sorted((outs[1] / preset).iterdir())
        assert [n.name for n in names] == [n.name for n in names_b]
        for fa, fb in zip(names, names_b):
            assert fa.read_bytes() == fb.read_bytes()
            total += 1
    report(12, f"two runs of every preset byte-identical across {total} files")

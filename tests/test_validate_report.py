"""The scalar ``validate`` report against the array report.

Both evaluate the one kernel ``params.field_identities``:
``cli._identity_maxima`` point by point on ``math``,
``fields.field_identity_residuals`` over arrays on numpy.  On the same
points the scalar maxima equal numpy's ``max(abs(...))`` of the array
report bit for bit, NaN included.  numpy's cosh and sinh may differ from
``math``'s in the last ulp (where numpy has its own SIMD kernels), which
moves the dynamic defect of about one sweep-box set in four, so those sets
run the loop with ``m=numpy``; the presets also match on ``math``.
"""

import math
import random

import numpy as np
import pytest

from shearwave import DomainError, WaveParams, field_identity_residuals
from shearwave import params as wparams
from shearwave.cli import PRESETS, _identity_maxima, _validate_points, main

G = 9.81


def array_maxima(t, x, y, p):
    res = field_identity_residuals(np.array(t), np.array(x), np.array(y), p)
    return tuple(float(np.max(np.abs(r))) for r in res)


def bits(values):
    return [float(v).hex() for v in values]


def sweep_box(seed: int) -> WaveParams:
    """One right-going scenario of the sweep box: h in [0.1, 10] m, k in
    [0.03, 10] rad/m, a/h in [1e-4, 0.06] (log-uniform), omega*sqrt(h/g)
    uniform in [-15, 15], either branch; c <= 0 is redrawn."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    while True:
        h, k = log_uniform(0.1, 10.0), log_uniform(0.03, 10.0)
        a = h * log_uniform(1e-4, 0.06)
        omega = rng.uniform(-15.0, 15.0) * math.sqrt(G / h)
        branch = rng.choice(("plus", "minus"))
        p = WaveParams.solve(G, h, k, omega, a=a, branch=branch)
        if p.c > 0:
            return p


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_maxima_equal_the_array_report(name):
    p = WaveParams.solve(**PRESETS[name]["params"])
    t, x, y = _validate_points(p)
    assert len(t) == len(x) == len(y) == 10_000
    assert bits(_identity_maxima(t, x, y, p)) == bits(array_maxima(t, x, y, p))


@pytest.mark.filterwarnings("ignore:.*exceeds:UserWarning")
@pytest.mark.parametrize("seed", range(50))
def test_sweep_box_maxima_equal_the_array_report(seed):
    p = sweep_box(seed)
    t, x, y = _validate_points(p)
    assert bits(_identity_maxima(t, x, y, p, m=np)) == bits(array_maxima(t, x, y, p))


def test_nan_residual_is_reported_and_fails(capsys):
    # A*k*cosh(k*y) overflows, so inf - inf makes the divergence, curl and
    # kinematic rows NaN; a plain max() would skip them and pass.
    with pytest.warns(UserWarning):
        code = main(["validate", "--preset", "fig2", "--a", "1e305", "--k", "600"])
    out = capsys.readouterr().out.splitlines()
    assert code == 4
    rows = {line.split()[1]: line for line in out}
    for label in ("divergence", "curl_defect", "kinematic_defect"):
        assert "max|residual| = nan" in rows[label] and rows[label].endswith("FAIL")
    for label in ("bed_velocity", "dynamic_defect", "dispersion_residual"):
        assert rows[label].endswith("PASS")


def test_both_reports_follow_the_one_kernel(monkeypatch, capsys):
    p = WaveParams.solve(**PRESETS["fig2"]["params"])
    t, x, y = _validate_points(p)
    kernel = wparams.field_identities

    def perturbed(params, m):
        at = kernel(params, m)
        return lambda t, x, y: tuple(r + 1e-3 * (i + 1) for i, r in enumerate(at(t, x, y)))

    def reports():
        code = main(["validate", "--preset", "fig2"])
        rows = capsys.readouterr().out.splitlines()
        return array_maxima(t, x, y, p), _identity_maxima(t, x, y, p), rows, code

    array_before, scalar_before, rows_before, code_before = reports()
    monkeypatch.setattr(wparams, "field_identities", perturbed)
    array_after, scalar_after, rows_after, code_after = reports()
    assert (code_before, code_after) == (0, 4)
    for i in range(5):
        assert array_after[i] != array_before[i]
        assert scalar_after[i] != scalar_before[i]
        assert rows_after[i] != rows_before[i] and rows_after[i].endswith("FAIL")
        assert array_after[i] == scalar_after[i] == pytest.approx(1e-3 * (i + 1))
    assert rows_after[5] == rows_before[5]  # the dispersion residual


@pytest.mark.parametrize("y", [[-1.0], [0.5, -800.0], [-800.0, 0.5], [0.5, -1e-300]])
def test_both_reports_refuse_a_point_below_the_bed(y):
    # As velocity and pressure do.  Every y is checked, not max(y) alone:
    # [0.5, -800] has max 0.5, and cosh(k*800) overflows.
    p = WaveParams.solve(**PRESETS["fig2"]["params"])
    t = x = [0.0] * len(y)
    for report in (_identity_maxima, field_identity_residuals):
        with pytest.raises(DomainError, match="nonnegative"):
            report(t, x, y, p)


def test_both_reports_refuse_an_overflowing_height():
    p = WaveParams.solve(**PRESETS["fig2"]["params"])
    for report in (_identity_maxima, field_identity_residuals):
        with pytest.raises(DomainError, match="hyperbolic"):
            report([0.0, 0.0], [0.0, 0.0], [0.5, 800.0], p)


def test_sample_is_fixed_and_spans_three_periods():
    p = WaveParams.solve(**PRESETS["fig2"]["params"])
    t, x, y = _validate_points(p)
    assert (t, x, y) == _validate_points(p)
    assert 0.0 <= min(t) and max(t) < 3.0 * 2.0 * math.pi / p.f
    assert 0.0 <= min(x) and max(x) < 3.0 * p.wavelength
    assert 0.0 <= min(y) and max(y) < p.h
    # The first draws of random.Random(20260810), which Python keeps the
    # same across versions.
    draw = random.Random(20260810).random
    assert t[:2] == [3.0 * 2.0 * math.pi / p.f * draw() for _ in range(2)]


#: ``shearwave validate --preset <name>`` stdout.
VALIDATE_STDOUT = {
    "fig1": """\
fig1:           divergence  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig1:          curl_defect  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig1:         bed_velocity  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig1:     kinematic_defect  max|residual| = 3.469e-18  (tol 1.0e-10)  PASS
fig1:       dynamic_defect  max|residual| = 1.124e-15  (tol 9.8e-11)  PASS
fig1:  dispersion_residual  max|residual| = 2.220e-16  (tol 1.0e-10)  PASS
""",
    "fig2": """\
fig2:           divergence  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig2:          curl_defect  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig2:         bed_velocity  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig2:     kinematic_defect  max|residual| = 1.388e-17  (tol 1.0e-10)  PASS
fig2:       dynamic_defect  max|residual| = 1.152e-15  (tol 9.8e-11)  PASS
fig2:  dispersion_residual  max|residual| = 2.220e-16  (tol 1.0e-10)  PASS
""",
    "fig3": """\
fig3:           divergence  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig3:          curl_defect  max|residual| = 2.220e-16  (tol 1.0e-10)  PASS
fig3:         bed_velocity  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig3:     kinematic_defect  max|residual| = 6.939e-18  (tol 1.0e-10)  PASS
fig3:       dynamic_defect  max|residual| = 1.124e-15  (tol 9.8e-11)  PASS
fig3:  dispersion_residual  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
""",
    "fig4-left": """\
fig4-left:           divergence  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig4-left:          curl_defect  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig4-left:         bed_velocity  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig4-left:     kinematic_defect  max|residual| = 6.505e-19  (tol 1.0e-10)  PASS
fig4-left:       dynamic_defect  max|residual| = 1.099e-15  (tol 2.9e-12)  PASS
fig4-left:  dispersion_residual  max|residual| = 9.548e-15  (tol 1.0e-10)  PASS
""",
    "fig4-right": """\
fig4-right:           divergence  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig4-right:          curl_defect  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig4-right:         bed_velocity  max|residual| = 0.000e+00  (tol 1.0e-10)  PASS
fig4-right:     kinematic_defect  max|residual| = 1.388e-17  (tol 1.0e-10)  PASS
fig4-right:       dynamic_defect  max|residual| = 1.152e-15  (tol 9.8e-11)  PASS
fig4-right:  dispersion_residual  max|residual| = 2.220e-16  (tol 1.0e-10)  PASS
""",
}


@pytest.mark.parametrize("name", sorted(VALIDATE_STDOUT))
def test_validate_stdout_is_pinned(name, capsys):
    assert main(["validate", "--preset", name]) == 0
    assert capsys.readouterr().out == VALIDATE_STDOUT[name]

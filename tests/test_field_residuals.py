"""The array field-identity residual report, which evaluates the kernel
``params.field_identities`` on numpy, against the per-term formulas
written out as plain array expressions: same values byte for byte, same
shapes, and numpy scalars for scalar inputs."""

import math

import numpy as np
import pytest

from shearwave import DomainError, WaveParams, field_identity_residuals
from shearwave.cli import PRESETS
from shearwave.fields import FieldResiduals


def oracle_residuals(t, x, y, params):
    """The report written as plain array expressions, one temporary per
    operation."""
    y = np.asarray(y, dtype=float)
    A, k, f, omega = params.A, params.k, params.f, params.omega
    theta = (params.k * np.asarray(x, dtype=float)
             - params.f * np.asarray(t, dtype=float))
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    ky = k * y
    cosh_ky, sinh_ky = np.cosh(ky), np.sinh(ky)

    u_x = -A * k * sin_t * cosh_ky
    v_y = A * k * sin_t * cosh_ky
    div = u_x + v_y

    v_x = A * k * cos_t * sinh_ky
    u_y = -omega + A * k * cos_t * sinh_ky
    curl_defect = (v_x - u_y) - omega

    bed_v = A * sin_t * math.sinh(0.0)

    v_surf = A * sin_t * math.sinh(k * params.h)
    eta_t = params.a * f * sin_t
    eta_x = -params.a * k * sin_t
    U_h = -omega * params.h
    kinematic_defect = v_surf - (eta_t + U_h * eta_x)

    kh = k * params.h
    P_surf = (A / k) * cos_t * (
        (f + k * omega * params.h) * np.cosh(kh) - omega * np.sinh(kh))
    eta = params.h + params.a * cos_t
    dynamic_defect = P_surf - params.g * (eta - params.h)

    return FieldResiduals(div, curl_defect, bed_v, kinematic_defect,
                          dynamic_defect)


def preset_params(name, a=None):
    spec = dict(PRESETS[name]["params"])
    if a is not None:
        spec["a"] = a
    return WaveParams.solve(**spec)


def assert_same(got, want):
    for label, g, w in zip(FieldResiduals._fields, got, want):
        assert type(g) is type(w), label
        assert np.shape(g) == np.shape(w), label
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), label


def sample(params, rng, shape):
    period = 2.0 * math.pi / params.f
    return (rng.uniform(0.0, 3.0 * period, shape),
            rng.uniform(0.0, 3.0 * params.wavelength, shape),
            rng.uniform(0.0, params.h, shape))


# The first sampled point is moved to height y0: the bed with either sign
# of zero, above the mean level, or NaN, which is refused as below the bed.
@pytest.mark.parametrize("name", list(PRESETS))
@pytest.mark.parametrize("y0", [-0.0, 0.0, 1.5, math.nan])
@pytest.mark.parametrize("a", [None, 0.0])
def test_arrays_match_oracle(name, y0, a):
    p = preset_params(name, a)
    rng = np.random.default_rng(20261018)
    for n in (1, 7, 10_000):
        t, x, y = sample(p, rng, n)
        y[0] = y0
        if math.isnan(y0):
            with pytest.raises(DomainError, match="nonnegative"):
                field_identity_residuals(t, x, y, p)
            continue
        assert_same(field_identity_residuals(t, x, y, p),
                    oracle_residuals(t, x, y, p))


@pytest.mark.parametrize("name", list(PRESETS))
def test_scalars_and_zero_d_arrays_match_oracle(name):
    p = preset_params(name)
    rng = np.random.default_rng(5)
    t, x, y = (float(v[0]) for v in sample(p, rng, 1))
    for args in [(t, x, y), (np.float64(t), np.float64(x), np.float64(y)),
                 (np.array(t), np.array(x), np.array(y)), (0, 0, 0),
                 (t, x, np.array([y, 0.0, p.h]))]:
        got = field_identity_residuals(*args, p)
        assert_same(got, oracle_residuals(*args, p))
    scalar = field_identity_residuals(t, x, y, p)
    assert all(type(v) is np.float64 for v in scalar)


@pytest.mark.parametrize("shapes", [
    ((), (5,), (4, 1)),
    ((5,), (), (4, 1)),
    ((4, 1), (5,), ()),
    ((3, 1, 1), (1, 5), (4, 1)),
    ((6,), (6,), (1,)),
    ((2, 3), (3,), (2, 3)),
])
def test_broadcast_shapes_match_oracle(shapes):
    p = preset_params("fig2")
    rng = np.random.default_rng(len(str(shapes)))
    t = sample(p, rng, shapes[0])[0]
    x = sample(p, rng, shapes[1])[1]
    y = sample(p, rng, shapes[2])[2]
    got = field_identity_residuals(t, x, y, p)
    assert_same(got, oracle_residuals(t, x, y, p))
    full = np.broadcast_shapes(*shapes)
    assert got.div.shape == got.curl_defect.shape == full


def test_inputs_are_not_modified():
    p = preset_params("fig4-left")
    t, x, y = sample(p, np.random.default_rng(3), 50)
    before = [v.copy() for v in (t, x, y)]
    field_identity_residuals(t, x, y, p)
    for v, w in zip((t, x, y), before):
        assert v.tobytes() == w.tobytes()

"""The result records are immutable named tuples: fields cannot be
assigned, records unpack and compare equal to plain tuples, and
``_replace`` makes a changed copy.  ``SteadyCoeffs`` is an immutable
value with slots instead, for the speed of the kernel's field reads."""

import math
import pickle

import pytest

from shearwave import (CriticalPoint, DriftReport, SteadyCoeffs, WaveParams,
                       drift_per_period, find_critical_points)
from shearwave.cli import PRESETS
from shearwave.drift import ClosedOrbit, Trajectory
from shearwave.phase import X_RANGE, PhasePortrait
from shearwave.steady import ScanRow


@pytest.fixture
def fig2():
    return WaveParams.solve(**PRESETS["fig2"]["params"])


def records(p):
    co, _ = SteadyCoeffs.from_params(p).normalized()
    return {
        "WaveParams": p,
        "CriticalPoint": find_critical_points(co)[0],
        "DriftReport": drift_per_period(0.1, co),
    }


@pytest.mark.parametrize("name", ["WaveParams", "CriticalPoint", "DriftReport"])
def test_fields_cannot_be_assigned(fig2, name):
    record = records(fig2)[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        record.no_such_field = 1.0


def test_records_are_tuples(fig2):
    g, h, a, k, omega, c, branch = fig2
    assert fig2 == (g, h, a, k, omega, c, branch)
    assert (g, h, a, k, omega, branch) == (9.81, 1.0, 0.01, 1.0, -6.0, "minus")
    cp = records(fig2)["CriticalPoint"]
    assert isinstance(cp, CriticalPoint) and tuple(cp) == (
        cp.X, cp.Y, cp.kind, cp.hessian_eigs, cp.H_value, cp.label)
    report = records(fig2)["DriftReport"]
    assert isinstance(report, DriftReport) and report[0] == report.Y0 == 0.1


def test_steady_coefficients_are_immutable_values(fig2):
    co = SteadyCoeffs.from_params(fig2)
    flipped, shifted = co.normalized()
    assert shifted and flipped == SteadyCoeffs(-co.Ak, co.omega, co.f, co.k)
    assert hash(flipped) == hash(SteadyCoeffs(-co.Ak, co.omega, co.f, co.k))
    assert flipped != co and co.Ak < 0 < flipped.Ak
    assert pickle.loads(pickle.dumps(co)) == co
    assert repr(co) == f"SteadyCoeffs(Ak={co.Ak!r}, omega=-6.0, f={co.f!r}, k=1.0)"
    for action in (lambda: setattr(co, "Ak", 1.0), lambda: delattr(co, "f"),
                   lambda: setattr(co, "extra", 1.0)):
        with pytest.raises(AttributeError):
            action()


def test_guard_flags_are_derived(fig2):
    assert (fig2.amplitude_flag, fig2.validity_flag) == (False, False)
    with pytest.warns(UserWarning):
        big = fig2._replace(a=0.2)
    eps_om = 0.2 * 6.0 * math.sqrt(1.0 / 9.81)
    assert (big.amplitude_flag, big.validity_flag) == (True, eps_om >= 0.3)
    assert "amplitude_flag" not in fig2._fields


def test_records_hold_no_field_that_nothing_reads():
    removed = {Trajectory: {"co", "method"},
               ClosedOrbit: {"drift_residual", "wavelength", "depth"},
               PhasePortrait: {"coeffs", "x_range"}, ScanRow: {"status"}}
    for record, names in removed.items():
        assert not names & set(record._fields), record.__name__
    assert ClosedOrbit._fields[-1] == "verified" and X_RANGE == (-math.pi, math.pi)

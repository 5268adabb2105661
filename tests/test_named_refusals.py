"""Each refusal and guard of ``src/shearwave`` that no other test reaches,
reached by a named input with its typed outcome.

* a drift level one float from its separatrix: NumericsError "within
  rounding of its separatrix";
* sweep108's level one float above its root of H(pi, Y) = 0, whose walk
  down from X = pi meets no section above the bed: NumericsError "meets
  neither section", and ``paths.integrate_steady`` leaves the layer unset;
* fig2 at a = 1e-300, where a critical point's Hessian determinant,
  whose terms scale with the amplitude, is within rounding of zero:
  ``portrait`` exits 4;
* a DOP853 step failure below the escape height, from a stub integrator
  that returns Hairer's STIFF outcome: NumericsError, ``paths`` exits 4;
* an isocline turn within Brent's tolerance of the bed: a one-point half;
* a root bracketed at the stationary point of phi, where the Newton polish
  steps out of its monotone piece: the bracketed root is kept.
"""

import json
import math

import pytest

from make_reference_portrait import G, sweep_cases
from shearwave import NumericsError, SteadyCoeffs, WaveParams, drift, paths
from shearwave.cli import EXIT_NUMERICAL, main
from shearwave.dop853 import STIFF
from shearwave.drift import drift_per_period, layer_boundaries, orbit_layer
from shearwave.steady import ROOT_XTOL, Y_GUARD, bracketed_root, isocline_roots

#: sweep108's level one float above its root of H(pi, Y) = 0: the walk from
#: (pi, Y0) goes down and ends at the bed, on neither section.
SWEEP108_Y0 = 0.028718287632102973


@pytest.fixture(scope="module")
def sweep108_coeffs():
    h, k, a, omega, branch = sweep_cases()[108]
    co, _ = SteadyCoeffs.from_params(
        WaveParams.solve(G, h, k, omega, a=a, branch=branch)).normalized()
    return co


@pytest.mark.parametrize("coeffs,key,toward", [
    ("fig2_coeffs", "Y_lower", math.inf),
    ("fig2_coeffs", "Y_lower", -math.inf),
    ("fig2_coeffs", "Y_upper", math.inf),
    ("fig2_coeffs", "Y_upper", -math.inf),
    ("fig1_coeffs", "Y_lower", math.inf),
    ("fig1_coeffs", "Y_lower", -math.inf),
])
def test_a_level_one_float_from_its_separatrix_is_refused(coeffs, key, toward, request):
    co = request.getfixturevalue(coeffs)
    Y0 = math.nextafter(layer_boundaries(co)[key], toward)
    with pytest.raises(NumericsError, match="within rounding of its separatrix") as err:
        drift_per_period(Y0, co)
    assert err.value.diagnostics["Y0"] == Y0


def test_a_level_that_meets_neither_section_is_refused(sweep108_coeffs):
    co = sweep108_coeffs
    below = math.nextafter(SWEEP108_Y0, 0.0)
    assert co.H(math.pi, below, math) > 0.0 > co.H(math.pi, SWEEP108_Y0, math)
    with pytest.raises(NumericsError, match="meets neither section above the bed") as err:
        drift_per_period(SWEEP108_Y0, co)
    assert err.value.diagnostics == {"Y0": SWEEP108_Y0}


def test_a_trajectory_whose_walk_fails_has_no_layer(sweep108_coeffs):
    co = sweep108_coeffs
    with pytest.raises(NumericsError, match="meets neither section"):
        orbit_layer(math.pi, SWEEP108_Y0, co)
    traj = paths.integrate_steady(math.pi, SWEEP108_Y0, co, 1.0)
    assert traj.layer is None and not traj.truncated and len(traj.t) > 1


def test_a_vanishing_amplitude_exits_4_on_its_degenerate_hessian(capsys, tmp_path):
    code = main(["portrait", "--preset", "fig2", "--a", "1e-300",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.err == "numerical failure: degenerate Hessian at a critical point\n"
    assert not (tmp_path / "out").exists()


def _stiff_stub(fcn, x, y, xend, rtol, atol, solout, nmax):
    """A stub of ``dop853``: it reports the start, then gives up as STIFF,
    an outcome Hairer's code returns after repeated stiffness tests."""
    solout(x, x, y)
    return STIFF


def test_a_step_failure_below_the_escape_height_is_refused(fig1_coeffs, monkeypatch):
    monkeypatch.setattr(drift, "dop853", _stiff_stub)
    with pytest.raises(NumericsError, match="^integration step failure$") as err:
        drift.steady_trajectory(math.pi, 0.5, fig1_coeffs, 1.0)
    assert err.value.diagnostics == {"t_reached": 0.0, "t_end": 1.0, "idid": STIFF}


def test_paths_exits_4_on_a_step_failure(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(drift, "dop853", _stiff_stub)
    code = main(["paths", "--preset", "fig1", "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: integration step failure\n"
    assert not (tmp_path / "out").exists()


def test_an_isocline_turn_at_the_bed_gives_a_one_point_half(capsys, tmp_path):
    # q' changes sign at Y ~ omega/f ~ 4e-17, within Brent's tolerance of
    # the bed: the lower branch runs from the bed to the bed.
    assert main(["portrait", "--preset", "fig1", "--omega", "1e-16", "--a", "2",
                 "--out", str(tmp_path), "--quiet"]) == 0
    summary = json.loads((tmp_path / "fig1" / "portrait.json").read_text(encoding="utf-8"))
    assert [(b["label"], b["n_samples"]) for b in summary["isoclines"]] == [
        ("gamma", 2), ("Y2", 962)]
    rows = (tmp_path / "fig1" / "isoclines.csv").read_text(encoding="utf-8").splitlines()
    p = summary["params"]
    x = math.acos(p["f"] / (p["A"] * p["k"]))   # cos X = f/(Ak) at the bed
    assert rows[1:3] == [f"gamma,{-x!r},0", f"gamma,{x!r},0"]


def test_a_newton_step_out_of_its_piece_keeps_the_bracketed_root():
    # phi(pi, .) peaks at 2e-17 at its stationary point ym, so the lower
    # piece's Brent root is ym itself, where phi' ~ -2e-16: the Newton step
    # from it leaves [0, ym].
    co = SteadyCoeffs(Ak=1.0, omega=-1.5088795615383204, f=6.439293542825908e-16, k=1.0)
    fn = lambda y: co.H_Y(math.pi, y, math)
    ym = math.asinh(co.omega / -co.Ak)
    root = bracketed_root(fn, 0.0, ym, ROOT_XTOL)
    assert root == ym and not 0.0 <= root - fn(root) / co.hessian(math.pi, root, math)[2] <= ym
    roots = isocline_roots(math.pi, co)
    assert roots[0] == root and ym <= roots[1] < Y_GUARD

"""Flows outside the paper's critical-point layouts get drift profiles, and
every label and time agrees with direct integration.

The first six sets lie in the box h in [0.1, 10], k in [0.03, 10], a/h in
[1e-4, 0.06], |omega*sqrt(h/g)| <= 15 (g = 9.81); the other seven are
sweep-box cases (``make_reference_portrait.sweep_cases``).  Their drift
profiles once ended in typed errors, because the layers were read from a
table of the paper's layouts: a center near the bed with Ak > f, or the
three points placed where the table did not expect them.  The layers now
come from where each level graph first meets X = 0 or X = pi, and the
oracle here is scipy's DOP853 with event detection (``event_oracle``),
which knows nothing of level graphs.  ``bracketed_root``'s typed failures
are pinned at the end.
"""

import math

import pytest

from event_oracle import event_oracle
from make_reference_portrait import sweep_cases
from shearwave import (NumericsError, ShearwaveError, SteadyCoeffs, WaveParams,
                       drift_profile)
from shearwave.cli import main
from shearwave.steady import bracketed_root

G = 9.81

#: (h, k, a, omega, branch) by test id.
CASES = {f"h{c[0]}-omega{c[3]}-{c[4]}": c for c in [
    (4.944, 0.030583, 0.081321, 10.491, "plus"),
    (7.919, 6.0518, 0.14531, -12.264, "minus"),
    (8.3892, 0.038624, 0.28815, -6.017, "minus"),
    (4.5627, 2.2629, 0.16707, -5.9001, "plus"),
    (1.2688, 0.10534, 0.018075, -36.260, "minus"),
    (2.4330, 0.066482, 0.045724, 17.262, "plus"),
]}
CASES.update({f"sweep{i:03d}": sweep_cases()[i] for i in (42, 54, 60, 93, 107, 108, 130)})


def _params(case):
    h, k, a, omega, branch = case
    return WaveParams.solve(G, h, k, omega, a=a, branch=branch)


def _argv(case):
    h, k, a, omega, branch = case
    return ["--g", str(G), "--h", str(h), "--k", str(k), "--a", str(a),
            "--omega", str(omega), "--branch", branch]


@pytest.mark.parametrize("name", CASES)
def test_drift_profile_matches_the_event_oracle(name):
    p = _params(CASES[name])
    co, _ = SteadyCoeffs.from_params(p).normalized()
    reports = drift_profile(p, n=17)
    assert len(reports) == 17
    bed, *levels = reports
    assert bed.layer == "bed_adjacent"
    assert math.isnan(bed.tau) == (co.Ak >= co.f)
    oracle = {r.Y0: event_oracle(r.Y0, co) for r in levels}
    assert [r.layer for r in levels] == [oracle[r.Y0][0] for r in levels]
    transits = [r for r in levels if r.layer in ("internal_wave", "surface_wave")]
    loops = [r for r in levels if r.layer == "vortex"]
    assert transits
    for r in transits[:1] + loops[len(loops) // 2:][:1]:
        assert r.tau == pytest.approx(oracle[r.Y0][1], rel=1e-8)


@pytest.mark.parametrize("name", CASES)
def test_drift_command_exits_0(name, capsys, tmp_path):
    code = main(["drift", *_argv(CASES[name]), "--levels", "17", "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0 and capsys.readouterr().err == ""
    (csv,) = tmp_path.glob("*/drift.csv")
    assert len(csv.read_text().splitlines()) == 18


@pytest.mark.parametrize("name", ["h8.3892-omega-6.017-minus", "h1.2688-omega-36.26-minus"])
def test_paths_command_exits_0(name, capsys, tmp_path):
    code = main(["paths", *_argv(CASES[name]), "--t-end", "10", "--out", str(tmp_path),
                 "--quiet"])
    capsys.readouterr()
    assert code == 0


def test_ci_case_pins_its_vortex_rows(capsys, tmp_path):
    # The case the cli-without-numpy job runs: a center at X = pi near the bed.
    code = main(["drift", *_argv(CASES["h8.3892-omega-6.017-minus"]), "--levels", "17",
                 "--out", str(tmp_path), "--quiet"])
    capsys.readouterr()
    rows = next(tmp_path.glob("*/drift.csv")).read_text().splitlines()
    assert code == 0 and sum(row.endswith(",vortex") for row in rows) == 12


def test_bracketed_root_reports_bracket_and_end_values():
    with pytest.raises(NumericsError, match=r"\[1, 2\]") as exc:
        bracketed_root(lambda y: y * y + 1.0, 1.0, 2.0, 1e-12, what="demo")
    assert exc.value.diagnostics == {"bracket": (1.0, 2.0), "values": (2.0, 5.0)}
    assert bracketed_root(lambda y: y - 0.25, 0.0, 1.0, 1e-15) == pytest.approx(0.25)


def test_bracketed_root_passes_package_errors_through():
    def fn(y):
        raise ShearwaveError("from the function")
    with pytest.raises(ShearwaveError, match="from the function") as exc:
        bracketed_root(fn, 0.0, 1.0, 1e-12)
    assert not isinstance(exc.value, NumericsError)

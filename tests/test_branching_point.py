"""fig3's flow at its branching vorticity omega*, where the centre P1 and
the saddle P2 are born together on X = pi.

There phi(pi, .) touches zero at its maximum.  A root of the census is a
strict sign change of phi, so it finds the pair as two points or none, and
a maximum exactly at zero, as one float past omega*, lists no point; no
float around omega* is refused.  ``portrait``, ``drift`` and
``bifurcation`` run on omega* itself, and a sweep that starts there
reports it.
"""

import json
import math

import pytest

from shearwave import ShearwaveError, SteadyCoeffs, from_mapping
from shearwave.cli import PRESETS, main
from shearwave.steady import find_critical_points

#: fig3's branching vorticity: the branching discriminant is 0.0 there.
OMEGA_STAR = -0.9468436502889661

#: One float past omega*, where phi(pi, .) is 0.0 at its maximum.
OMEGA_TOUCH = math.nextafter(OMEGA_STAR, -math.inf)


def _census(omega):
    p = from_mapping({**PRESETS["fig3"]["params"], "omega": omega})
    return find_critical_points(SteadyCoeffs.from_params(p).normalized()[0])


def test_bifurcation_sweep_from_the_branching_point_reports_it(capsys, tmp_path):
    code = main(["bifurcation", "--preset", "fig3", "--omega-start", repr(OMEGA_STAR),
                 "--omega-stop", "-1", "--steps", "3", "--out", str(tmp_path)])
    assert code == 0 and capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "fig3" / "bifurcation.json").read_text())
    assert summary["counts"] == [1, 3]
    assert summary["omega_star"] == OMEGA_STAR


@pytest.mark.parametrize("command", ["portrait", "drift"])
def test_commands_run_at_the_branching_point(command, capsys, tmp_path):
    code = main([command, "--preset", "fig3", "--omega", repr(OMEGA_STAR),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0 and capsys.readouterr().err == ""
    assert [cp.kind for cp in _census(OMEGA_STAR)] == ["saddle"]


@pytest.mark.parametrize("command", ["portrait", "drift"])
def test_commands_run_where_the_isocline_touches_zero(command, capsys, tmp_path):
    assert OMEGA_TOUCH == -0.9468436502889662
    code = main([command, "--preset", "fig3", "--omega", repr(OMEGA_TOUCH),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0 and capsys.readouterr().err == ""
    assert [cp.kind for cp in _census(OMEGA_TOUCH)] == ["saddle"]


def test_census_refuses_no_float_around_the_branching_point():
    # 200 floats either side of omega*: one saddle below the birth and
    # where the isocline's maximum is exactly zero, three points past it.
    omegas = [OMEGA_STAR]
    for _ in range(200):
        omegas.insert(0, math.nextafter(omegas[0], 0.0))
        omegas.append(math.nextafter(omegas[-1], -math.inf))
    counts, refused = {}, 0
    for omega in omegas:
        try:
            n = len(_census(omega))
        except ShearwaveError:
            refused += 1
            continue
        counts[n] = counts.get(n, 0) + 1
    assert refused == 0
    assert set(counts) == {1, 3} and sum(counts.values()) + refused == 401

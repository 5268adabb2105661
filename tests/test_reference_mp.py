"""Critical points and separatrix heights against ``reference_mp.json``, the
50-digit mpmath values written by ``make_reference_mp.py``.

Each bound records the accuracy measured when the file was made (the
worst case over fig1, fig2, fig3 and fig4-left, in the comment next to
it) with about a factor of two to spare, so that a change of the last ulp
passes and a lost digit does not.  H is scaled by (1 + |H|), as the
portrait's level checks are; everything else is relative.
"""

import json
from pathlib import Path

import mpmath as mp
import pytest

from shearwave import SteadyCoeffs, find_critical_points, from_mapping, layer_boundaries
from shearwave.cli import PRESETS
from shearwave.steady import Y_GUARD

REFERENCE = json.loads(Path(__file__).with_name("reference_mp.json")
                       .read_text(encoding="utf-8"))

Y_RTOL = 3e-16          # measured 1.2e-16 (fig2 P1)
H_TOL = 2e-16           # measured 9.9e-17 (fig4-left P0), scaled by 1 + |H|
EIG_RTOL = 2e-15        # measured 9.1e-16 (fig3 P2, the negative eigenvalue)
SECTION_RTOL = 1e-15    # measured 5.0e-16 (fig3 Y_upper)


def _rel(value, want, scale=None):
    want = mp.mpf(want)
    return float(abs(mp.mpf(value) - want) / (abs(want) if scale is None else scale))


def coeffs(name):
    ref = REFERENCE["presets"][name]
    co, _ = SteadyCoeffs.from_params(from_mapping(PRESETS[name]["params"])).normalized()
    # The file was made for these exact inputs.
    assert (co.Ak, co.omega, co.f) == (ref["Ak"], ref["omega"], ref["f"])
    return co, ref


@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(REFERENCE["dps"]):
        yield


@pytest.mark.parametrize("name", sorted(REFERENCE["presets"]))
def test_critical_points_match_reference(name):
    co, ref = coeffs(name)
    assert REFERENCE["y_max"] == Y_GUARD
    got = find_critical_points(co)
    want = ref["critical_points"]
    assert [(cp.X == 0.0, cp.kind) for cp in got] == \
        [(cp["X"] == "0", cp["kind"]) for cp in want]
    for cp, row in zip(got, want):
        assert _rel(cp.Y, row["Y"]) <= Y_RTOL, (cp.label, "Y")
        H = mp.mpf(row["H"])
        assert _rel(cp.H_value, H, scale=1 + abs(H)) <= H_TOL, (cp.label, "H")
        for eig, want_eig in zip(cp.hessian_eigs, row["hessian_eigs"]):
            assert _rel(eig, want_eig) <= EIG_RTOL, (cp.label, "eigenvalue")


@pytest.mark.parametrize("name", sorted(REFERENCE["presets"]))
def test_default_search_finds_every_reference_point(name):
    co, ref = coeffs(name)
    assert len(find_critical_points(co)) == len(ref["critical_points"])


@pytest.mark.parametrize("name", sorted(REFERENCE["presets"]))
def test_section_heights_match_reference(name):
    co, ref = coeffs(name)
    b = layer_boundaries(co)
    keys = [key for key in ("Y_lower", "Y_upper") if key in ref]
    assert keys == [key for key in ("Y_lower", "Y_upper") if key in b]
    for key in keys:
        assert _rel(b[key], ref[key]) <= SECTION_RTOL, key

"""Parameter sets outside the classified topologies end in typed errors.

Each set lies in the box h in [0.1, 10], k in [0.03, 10], a/h in
[1e-4, 0.06], |omega*sqrt(h/g)| <= 15 (g = 9.81), and once ended the drift
code in a bare KeyError or ValueError.  Layer classification for these
topologies is not implemented; what is pinned here is that the failure is
a NumericsError and that ``shearwave drift`` exits 4 with a single stderr
line.
"""

import pytest

from shearwave import NumericsError, ShearwaveError, WaveParams, drift_profile
from shearwave.cli import EXIT_NUMERICAL, main
from shearwave.steady import bracketed_root

G = 9.81

#: (h, k, a, omega, branch, the untyped failure it used to raise)
CASES = [
    (4.944, 0.030583, 0.081321, 10.491, "plus", "ValueError, single-saddle layer bound"),
    (7.919, 6.0518, 0.14531, -12.264, "minus", "ValueError, level solver"),
    (8.3892, 0.038624, 0.28815, -6.017, "minus", "KeyError 'H0'"),
    (4.5627, 2.2629, 0.16707, -5.9001, "plus", "ValueError, three-point layer bound"),
    (1.2688, 0.10534, 0.018075, -36.260, "minus", "KeyError 'H0'"),
    (2.4330, 0.066482, 0.045724, 17.262, "plus", "ValueError, single-saddle layer bound"),
]
IDS = [f"h{c[0]}-omega{c[3]}-{c[4]}" for c in CASES]


def _argv(case):
    h, k, a, omega, branch, _ = case
    return ["--g", str(G), "--h", str(h), "--k", str(k), "--a", str(a),
            "--omega", str(omega), "--branch", branch]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_drift_profile_raises_numerics_error(case):
    h, k, a, omega, branch, _ = case
    p = WaveParams.solve(G, h, k, omega, a=a, branch=branch)
    with pytest.raises(NumericsError) as exc:
        drift_profile(p, n=33)
    assert isinstance(exc.value, ShearwaveError)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_drift_command_exits_4_with_one_line(case, capsys, tmp_path):
    code = main(["drift", *_argv(case), "--out", str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")


@pytest.mark.parametrize("case", [c for c in CASES if "KeyError" in c[5]],
                         ids=[i for i, c in zip(IDS, CASES) if "KeyError" in c[5]])
def test_paths_command_leaves_the_layer_unclassified(case, capsys, tmp_path):
    code = main(["paths", *_argv(case), "--t-end", "10", "--out", str(tmp_path),
                 "--quiet"])
    capsys.readouterr()
    assert code == 0


def test_layer_error_names_the_topology():
    p = WaveParams.solve(G, 8.3892, 0.038624, -6.017, a=0.28815, branch="minus")
    with pytest.raises(NumericsError, match="center at .* saddle at") as exc:
        drift_profile(p, n=5)
    kinds = [cp[1] for cp in exc.value.diagnostics["critical_points"]]
    assert kinds == ["center", "saddle"]


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

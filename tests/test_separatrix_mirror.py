"""A portrait samples each level graph leaving a saddle once.

H = Ak*cos(X)*sinh(Y) - omega*Y^2/2 - f*Y is even in X, so on a saddle at
X = 0 the second arm with each vertical tangent sign is the reflection
(-X + 0.0, Y) of the first; a saddle on X = pi keeps its two inward arms.
Each level graph is one separatrix group, so the groups, and
``n_separatrices``, do not depend on the window ``ymax``.
"""

import json
import warnings

import pytest

from make_reference_portrait import all_params
from shearwave import phase
from shearwave.cli import main


@pytest.fixture(scope="module")
def params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the box reaches the validity guard
        return all_params()


def _flows(params, n_sweep):
    """The five presets and the first ``n_sweep`` sweep flows, in that order."""
    return list(params.values())[:5 + n_sweep]


def _bits(points):
    return [(x.hex(), y.hex()) for x, y in points]


@pytest.mark.parametrize("ymax", [20.0, 5.0])
def test_every_arm_is_the_tracers_arm(params, ymax):
    arms = 0
    for p in _flows(params, 20):
        port = phase.build_phase_portrait(p, ymax=ymax)
        for arm in port.separatrices:
            traced = phase.trace_separatrix(arm.saddle, port.coeffs_normalized,
                                            arm.direction, ymax)
            assert _bits(arm.points) == _bits(traced.points)
            assert (arm.termination, arm.near_label, arm.H_level.hex()) == \
                (traced.termination, traced.near_label, traced.H_level.hex())
            arms += 1
    assert arms > 100


def test_groups_do_not_depend_on_the_window(params):
    for p in _flows(params, 30):
        assert phase.build_phase_portrait(p, ymax=5.0).separatrix_groups == \
            phase.build_phase_portrait(p).separatrix_groups


def test_a_group_is_the_mirror_pair_of_one_level_graph(params):
    port = phase.build_phase_portrait(params["fig2"])
    assert [[port.separatrices[i].saddle.label for i in group]
            for group in port.separatrix_groups] == [["P0", "P0"], ["P0", "P0"], ["P2"], ["P2"]]
    for group in port.separatrix_groups:
        first, *mirror = (port.separatrices[i] for i in group)
        for arm in mirror:
            assert _bits(arm.points) == _bits([(-x + 0.0, y) for x, y in first.points])


def test_an_x0_saddle_samples_two_graphs(params, monkeypatch):
    # fig1 lists one saddle, on X = 0, and no center: four arms, two graphs.
    starts = []
    graph = phase._graph

    def counting(x_of, p0, p1, n, point_of=None):
        if point_of is not None:    # a separatrix, not an isocline half
            starts.append(p0)
        return graph(x_of, p0, p1, n, point_of)

    monkeypatch.setattr(phase, "_graph", counting)
    port = phase.build_phase_portrait(params["fig1"])
    assert [cp.X for cp in port.critical_points] == [0.0]
    assert len(port.separatrices) == 4
    assert len(starts) == 2


def test_portrait_counts_the_graphs_above_the_window(tmp_path):
    # fig2's saddle on X = pi lies above Y = 5: its two one-point arms are
    # two graphs, as at the default window.
    for ymax in ("5", "20"):
        assert main(["portrait", "--preset", "fig2", "--ymax", ymax, "--quiet",
                     "--out", str(tmp_path / ymax)]) == 0
        summary = json.loads((tmp_path / ymax / "fig2" / "portrait.json").read_text())
        assert summary["n_separatrices"] == 4

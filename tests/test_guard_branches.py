"""Refusals and edge cases that the rest of the suite does not reach: a
start below the bed, a point below the bed given to the Morse
classification, and a portrait window that ends below its saddle."""

import json

import pytest

from shearwave import DomainError, classify_layer, drift_per_period, section_height
from shearwave.cli import main
from shearwave.steady import classify_critical_point


@pytest.mark.parametrize("call", [
    lambda co: classify_layer(-1.0, co),
    lambda co: section_height(1.0, -0.5, co),
    lambda co: drift_per_period(-1.0, co),
], ids=["classify_layer", "section_height", "drift_per_period"])
def test_a_start_below_the_bed_is_refused(call, fig2_coeffs):
    with pytest.raises(DomainError, match="Y0 must be nonnegative"):
        call(fig2_coeffs)


def test_classification_refuses_a_point_below_the_bed(fig2_coeffs):
    with pytest.raises(DomainError, match="Y must be nonnegative"):
        classify_critical_point(0.0, -1.0, fig2_coeffs)


def test_portrait_below_its_saddle_lists_it_with_one_point_arms(capsys, tmp_path):
    assert main(["portrait", "--preset", "fig1", "--ymax", "5",
                 "--out", str(tmp_path), "--quiet"]) == 0
    summary = json.loads((tmp_path / "fig1" / "portrait.json").read_text(encoding="utf-8"))
    (saddle,) = summary["critical_points"]
    assert saddle["label"] == "P0" and saddle["kind"] == "saddle"
    assert saddle["Y"] == pytest.approx(5.46, abs=0.005) and saddle["Y"] > 5.0
    arms = summary["separatrix_arms"]
    assert len(arms) == 4
    for arm in arms:
        assert arm["termination"] == "ymax" and arm["n_points"] == 1
        assert arm["end"] == [saddle["X"], saddle["Y"]]

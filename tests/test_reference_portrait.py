"""The default portrait's topology against ``reference_portrait.json``, the
critical points, separatrix arms (saddle, direction, termination, the
critical point reached) and arm groups that ``make_reference_portrait.py``
recorded for the five presets and 150 sweep-box scenarios.

The file was written by the level-set tracer that the explicit graphs over
Y replaced; the portraits must keep every case's topology exactly.
"""

import json
import warnings
from pathlib import Path

import pytest

from make_reference_portrait import all_params, topology

REFERENCE = json.loads(Path(__file__).with_name("reference_portrait.json")
                       .read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the box reaches the validity guard
        return all_params()


def test_reference_holds_every_case(params):
    assert sorted(params) == sorted(REFERENCE["cases"])
    assert len(params) == 155


def test_topology_matches_reference(params):
    changed = [name for name, p in params.items()
               if topology(p) != REFERENCE["cases"][name]]
    assert not changed, f"{len(changed)} portraits differ: {changed[:10]}"

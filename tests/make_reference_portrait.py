"""Write ``reference_portrait.json``: the topology of the default portrait
(``phase.build_phase_portrait(params)``, ymax 20, resolution 481) of the
five presets and of 150 scenarios from the sweep box.

For each case the file holds what the portrait says about the flow, not
how it was drawn:

- the critical points: label and kind;
- the separatrix arms, in order: saddle label, direction, termination and
  the label of the critical point an arm ends at (``near``);
- the groups of arms that form one separatrix curve (indexes into the
  arms).

A case on which the program raises records the error class instead.

The sweep box is the one of the ``sweep`` benchmark workload, restated
here so the scenarios do not depend on the benchmark code: h in [0.1, 10]
m, k in [0.03, 10] rad/m and a/h in [1e-4, 0.06], all log-uniform,
omega*sqrt(h/g) uniform in [-15, 15], either branch, drawn in that order
from ``random.Random(2026)``; a draw whose wave speed is not positive is
redrawn.  Python keeps the stream of a seeded ``random.Random`` the same
across versions.

Generation takes a few seconds; tier 1 only reads the file.  Rebuild it
on purpose with::

    PYTHONPATH=src python tests/make_reference_portrait.py
"""

import json
import math
import random
import sys
import warnings
from pathlib import Path

from shearwave import ShearwaveError, WaveParams, from_mapping
from shearwave.cli import PRESETS
from shearwave.phase import build_phase_portrait

OUT = Path(__file__).with_name("reference_portrait.json")
G = 9.81
SWEEP_SEED = 2026
SWEEP_CASES = 150


def _wave_speed(h, k, omega, branch):
    t = math.tanh(k * h)
    root = math.sqrt(4.0 * G * k * t + (omega * t) ** 2)
    return -h * omega + (omega * t + (root if branch == "plus" else -root)) / (2.0 * k)


def sweep_cases(n=SWEEP_CASES, seed=SWEEP_SEED):
    """(h, k, a, omega, branch) of the first ``n`` sweep-box scenarios."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < n:
        h = 0.1 * 100.0 ** rng.random()
        k = 0.03 * (10.0 / 0.03) ** rng.random()
        a = h * 1e-4 * 600.0 ** rng.random()
        omega = rng.uniform(-15.0, 15.0) * math.sqrt(G / h)
        branch = "plus" if rng.random() < 0.5 else "minus"
        if _wave_speed(h, k, omega, branch) <= 0.0:
            continue
        cases.append((h, k, a, omega, branch))
    return cases


def all_params():
    """Case name -> WaveParams, presets first."""
    out = {name: from_mapping(preset["params"]) for name, preset in PRESETS.items()}
    for idx, (h, k, a, omega, branch) in enumerate(sweep_cases()):
        out[f"sweep{idx:03d}"] = WaveParams.solve(G, h, k, omega, a=a, branch=branch)
    return out


def topology(params) -> dict:
    try:
        port = build_phase_portrait(params)
    except ShearwaveError as exc:
        return {"error": type(exc).__name__}
    return {
        "critical_points": [[cp.label, cp.kind] for cp in port.critical_points],
        "arms": [[arm.saddle.label, arm.direction, arm.termination, arm.near_label]
                 for arm in port.separatrices],
        "groups": port.separatrix_groups,
    }


def main():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the box reaches the validity guard
        cases = {name: topology(p) for name, p in all_params().items()}
    errors = sum("error" in case for case in cases.values())
    rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(case)}"
                       for name, case in cases.items())
    OUT.write_text(f'{{"sweep_seed": {SWEEP_SEED}, "cases": {{\n{rows}\n}}}}\n',
                   encoding="utf-8")
    print(f"wrote {len(cases)} cases ({errors} raising) to {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()

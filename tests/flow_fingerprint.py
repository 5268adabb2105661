"""Print a fingerprint of the census and the drift profile of a fixed set of
flows, to show that a change to the program leaves them bit for bit alone.

The flows are the five presets, the 150 sweep-box scenarios of
``make_reference_portrait.sweep_cases`` and the six sets outside the
paper's layouts of ``test_typed_failures``.  For each flow the script
hashes ``find_critical_points`` of its normalized coefficients and
``drift_profile(p, n=65)``, every float in hex, or the error class and
message where one raises.  It prints one line per flow, the number of
vortex loops timed, and one digest over all of them.  Run it on two
checkouts and compare the output::

    PYTHONPATH=src:tests python tests/flow_fingerprint.py
"""

import hashlib
import math
import warnings

from make_reference_portrait import all_params
from shearwave import ShearwaveError, SteadyCoeffs, WaveParams, drift_profile
from shearwave.steady import find_critical_points
from test_typed_failures import CASES, G


def _hex(value):
    return value.hex() if isinstance(value, float) else repr(value)


def _record(fn):
    try:
        return [tuple(_hex(v) for v in row) for row in fn()]
    except ShearwaveError as exc:
        return f"{type(exc).__name__}: {exc}"


def flows():
    out = all_params()
    for name, (h, k, a, omega, branch) in list(CASES.items())[:6]:
        out[name] = WaveParams.solve(G, h, k, omega, a=a, branch=branch)
    return out


def main():
    total, loops = hashlib.sha256(), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, p in flows().items():
            co, _ = SteadyCoeffs.from_params(p).normalized()
            census = _record(lambda: find_critical_points(co))
            profile = _record(lambda: drift_profile(p, n=65))
            if isinstance(profile, list):
                loops += sum(row[4] == repr("vortex") and not math.isnan(float.fromhex(row[1]))
                             for row in profile)
            digest = hashlib.sha256(repr((census, profile)).encode()).hexdigest()
            total.update(digest.encode())
            print(name, digest[:16])
    print("vortex loops timed:", loops)
    print("all:", total.hexdigest())


if __name__ == "__main__":
    main()

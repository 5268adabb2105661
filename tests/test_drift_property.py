"""Property test over the sweep box (README, "The sweep box"): every drawn
right-going flow gets a drift profile or a typed ``ShearwaveError``, and
every label of a profile is the one direct integration finds
(``event_oracle``).

Hypothesis draws the box's coordinates as the sweep does, each from a
uniform number in [0, 1]: h, k and a/h log-uniform, omega*sqrt(h/g)
uniform, either branch; a draw whose wave speed is not positive lies
outside the box and is rejected.  The run is derandomized with a fixed
example budget, so it is the same run every time.
"""

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from event_oracle import event_oracle
from shearwave import ShearwaveError, SteadyCoeffs, WaveParams, drift_profile

G = 9.81

#: Drift levels per drawn flow and drawn flows per run.
N_LEVELS = 9
MAX_EXAMPLES = 100

unit = st.floats(0.0, 1.0)


@settings(derandomize=True, max_examples=MAX_EXAMPLES, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(u_h=unit, u_k=unit, u_a=unit, omega_nd=st.floats(-15.0, 15.0),
       branch=st.sampled_from(["plus", "minus"]))
def test_drift_labels_match_the_event_oracle(u_h, u_k, u_a, omega_nd, branch):
    h = 0.1 * 100.0 ** u_h
    k = 0.03 * (10.0 / 0.03) ** u_k
    a = h * 1e-4 * 600.0 ** u_a
    omega = omega_nd * math.sqrt(G / h)
    try:
        p = WaveParams.solve(G, h, k, omega, a=a, branch=branch)
    except ShearwaveError:
        return
    assume(p.c > 0.0)
    try:
        reports = drift_profile(p, n=N_LEVELS)
    except ShearwaveError:
        return
    co, _ = SteadyCoeffs.from_params(p).normalized()
    assert len(reports) == N_LEVELS and reports[0].layer == "bed_adjacent"
    for r in reports[1:]:
        assert r.layer == event_oracle(r.Y0, co)[0], (h, k, a, omega, branch, r.Y0)

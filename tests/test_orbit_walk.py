"""The one level walk, ``drift._orbit``, read at any point of an orbit.

``orbit_layer``, ``section_height`` and ``classify_layer`` all read the same
walk.  Here each is checked against what direct integration finds: scipy's
DOP853 runs from (pi, Y0) over a quarter of a wave period, and at every
accepted point (X, Y) of that run the family ``orbit_layer(X, Y)`` must be
the one ``event_oracle(Y0)`` finds, and ``section_height(X, Y)`` a height on
X = pi of the same level.  A level whose H lies within ``H_MARGIN`` of a
saddle's H is skipped, so the integration's drift in H cannot carry a point
across a separatrix.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from event_oracle import event_oracle
from shearwave import (DomainError, SteadyCoeffs, classify_critical_point, classify_layer,
                       drift_per_period, find_critical_points, section_height,
                       transit_time_tau)
from shearwave.cli import PRESETS
from shearwave.drift import orbit_layer, steady_trajectory
from shearwave.params import from_mapping
from shearwave.paths import integrate_steady
from shearwave.steady import Y_GUARD, level_end
from test_validate_report import sweep_box

#: Sweep-box flows checked: the first 20, and 23, 52 and 80, deep-water flows
#: whose levels are flat to rounding at low heights, as are those of 2.
SWEEP_SEEDS = (*range(20), 23, 52, 80)
#: Start heights, as fractions of the fluid's top k*(h + a) on X = pi.
FRACTIONS = (1e-3, 0.05, 0.3, 0.6, 0.9)
#: Least relative distance of a level's H from every saddle's H.
H_MARGIN = 1e-6
#: Starts on X = pi on levels flat to rounding: the walks both ways from
#: such a start stop at once on X = 0 and find no X = pi end.
FLAT_ON_THE_SECTION = {
    2: (5.377321648359526, 21.92445743289789),
    23: (10.806451275557041, 16.97471468666585),
    52: (5.034146125758852,),
    80: (13.049011639127718, 0.3213167905673642, 7.516330914074391),
}


def _flows():
    flows = {name: from_mapping(PRESETS[name]["params"]) for name in sorted(PRESETS)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the validity guards
        flows.update((f"sweep{seed}", sweep_box(seed)) for seed in SWEEP_SEEDS)
    return flows


FLOWS = _flows()


def _coeffs(p):
    return SteadyCoeffs.from_params(p).normalized()[0]


def _scale(co, Y):
    """Size of the terms of H at height Y."""
    return co.Ak * math.sinh(Y) + abs((0.5 * co.omega * Y + co.f) * Y)


def _clear_of_saddles(co, Y0):
    H0 = co.H(math.pi, Y0, math)
    return all(abs(H0 - cp.H_value) > H_MARGIN * max(abs(H0), abs(cp.H_value))
               for cp in find_critical_points(co) if cp.kind == "saddle")


def _accepted_points(co, Y0):
    """The accepted (X, Y) of a scipy DOP853 run from (pi, Y0) over a
    quarter period, without dense output or evaluation points."""
    def rhs(t, z):
        with np.errstate(over="ignore", invalid="ignore"):
            return co.H_Y(z[0], z[1], np), -co.H_X(z[0], z[1], np)
    sol = solve_ivp(rhs, (0.0, 0.5 * math.pi / co.f), (math.pi, Y0), method="DOP853",
                    rtol=1e-10, atol=1e-12)
    return list(zip(sol.y[0].tolist(), sol.y[1].tolist()))


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_every_point_of_an_orbit_reads_the_oracle_family(name):
    p = FLOWS[name]
    co = _coeffs(p)
    top = p.k * (p.h + p.a)
    levels = [q * top for q in FRACTIONS if _clear_of_saddles(co, q * top)]
    assert len(levels) >= 3, levels
    for Y0 in levels:
        family = event_oracle(Y0, co)[0]
        H0 = co.H(math.pi, Y0, math)
        for X, Y in _accepted_points(co, Y0):
            assert orbit_layer(X, Y, co) == family, (name, Y0, X, Y)
            Y_pi = section_height(X, Y, co)
            if family == "unbounded":
                continue
            assert abs(co.H(math.pi, Y_pi, math) - H0) <= 1e-9 * _scale(co, max(Y, Y_pi))


@pytest.mark.parametrize("seed", sorted(FLAT_ON_THE_SECTION))
def test_a_start_on_the_section_is_its_own_height(seed):
    co = _coeffs(FLOWS[f"sweep{seed}"])
    for Y0 in FLAT_ON_THE_SECTION[seed]:
        assert section_height(math.pi, Y0, co) == Y0
        assert orbit_layer(math.pi, Y0, co) == classify_layer(Y0, co) == "internal_wave"


@pytest.mark.parametrize("seed, X0, Y0", [
    (2, 2.30835938639477, 21.797438788412496),
    (23, -1.3444866036822685, 20.20999994866036),
    (52, -2.303516413528635, 6.291078741198572),
    (80, -0.4759179428311371, 0.15530155264151213),
])
def test_a_level_flat_to_rounding_transits_at_its_height(seed, X0, Y0):
    # Deep water, k*h from 37 to 60, with A*k/f from 2e-19 to 5e-31: the wave
    # term is below the rounding of H at these heights, so the level through
    # (X0, Y0) is a horizontal line the particle runs along leftward.  The
    # walks both ways from (X0, Y0) stop at once on X = 0, which would read
    # as a vortex loop.  On sweep 23, H(X0, Y0) and H(pi, Y0) round to floats
    # an ulp apart although the wave term is a tenth of an ulp.
    co = _coeffs(FLOWS[f"sweep{seed}"])
    assert orbit_layer(X0, Y0, co) == event_oracle(Y0, co)[0] == "internal_wave"
    assert section_height(X0, Y0, co) == Y0

    def rhs(t, z):
        return co.H_Y(z[0], z[1], np), -co.H_X(z[0], z[1], np)

    def one_period_left(t, z):
        return z[0] - (X0 - 2.0 * math.pi)
    one_period_left.terminal = True
    sol = solve_ivp(rhs, (0.0, 10.0 * 2.0 * math.pi / co.f), (X0, Y0), method="DOP853",
                    rtol=1e-12, atol=1e-12, events=one_period_left)
    assert sol.t_events[0][0] == pytest.approx(transit_time_tau(Y0, co), rel=1e-9)
    assert np.max(np.abs(sol.y[1] - Y0)) <= 1e-12 * Y0


def test_a_start_past_the_hyperbolic_guard_is_refused_on_every_read():
    # Each entry checks the height it is given once, with
    # params.check_hyperbolic, before the kernel reads it on math, whose
    # cosh overflowed above Y = 710; every height after it is inside the guard.
    co = _coeffs(FLOWS["fig2"])
    reads = {
        "classify_layer": lambda Y: classify_layer(Y, co),
        "orbit_layer": lambda Y: orbit_layer(1.0, Y, co),
        "section_height": lambda Y: section_height(math.pi, Y, co),
        "transit_time_tau": lambda Y: transit_time_tau(Y, co),
        "drift_per_period": lambda Y: drift_per_period(Y, co),
        "classify_critical_point": lambda Y: classify_critical_point(0.0, Y, co),
        "level_end": lambda Y: level_end(co, 1.0, Y, True),
        "steady_trajectory": lambda Y: steady_trajectory(1.0, Y, co, 1.0),
        "integrate_steady adaptive": lambda Y: integrate_steady(1.0, Y, co, 1.0),
        "integrate_steady midpoint": lambda Y: integrate_steady(1.0, Y, co, 1.0,
                                                                 method="midpoint"),
    }
    over = math.nextafter(Y_GUARD, math.inf)
    for name, read in reads.items():
        with pytest.raises(DomainError, match="hyperbolic"):
            read(over)
        try:
            read(Y_GUARD)
        except DomainError as exc:
            assert "hyperbolic" not in str(exc), (name, str(exc))

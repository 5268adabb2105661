"""Write ``reference_tau.json``: transit times at 45 significant digits.

For each level Y0 on the X = pi section the transit time is

    tau = 2 * integral over X in [0, pi] of dX / |dX/dt|,

taken along the level curve H(X, Y) = H(pi, Y0).  mpmath evaluates it
independently of the package's solvers: ``mp.quad`` (tanh-sinh) does the
integral, and at every node the level curve is solved by ``findroot`` on
its monotone piece of H(X, .), bracketed by the roots of dX/dt = 0 in Y.
The package supplies only the inputs: the preset coefficients, the
default drift levels (``drift_profile(n=33)``), their layers, and the
separatrix height ``Y_lower`` for the levels just below it.

Generation takes a few minutes, so tier 1 only reads the file.  Rebuild it
on purpose with::

    PYTHONPATH=src python tests/make_reference_tau.py
"""

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

from shearwave import SteadyCoeffs, classify_layer, from_mapping, layer_boundaries
from shearwave.cli import PRESETS
from shearwave.drift import fluid_top_level

OUT = Path(__file__).with_name("reference_tau.json")
DPS = 45
PRESET_NAMES = ("fig1", "fig2", "fig4-left", "fig4-right")
LEVELS_N = 33
NEAR_SEPARATRIX = {"fig1": (1e-3, 1e-6, 1e-8), "fig2": (1e-3, 1e-6, 1e-8)}
TRANSIT_LAYERS = {"bed_adjacent": 0, "internal_wave": 0, "surface_wave": 1}


def default_levels(params, shifted):
    """The levels of ``drift_profile(params, n=LEVELS_N)``."""
    top = 0.999 * fluid_top_level(params, shifted)
    return np.concatenate([[0.0], np.geomspace(1e-5 * top, top, LEVELS_N - 1)])


def _bracketed(fn, lo, hi):
    """Root of fn on [lo, hi] (a sign change), refined to working precision."""
    flo, fhi = fn(lo), fn(hi)
    assert flo * fhi <= 0, (lo, hi, flo, fhi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    for _ in range(60):  # bisection to a safe start, then secant-type refinement
        mid = (lo + hi) / 2
        fmid = fn(mid)
        if fmid * flo > 0:
            lo, flo = mid, fmid
        else:
            hi = mid
    return mp.findroot(fn, (lo, hi), solver="anderson")


def _grow(fn, lo, sign):
    """Upper end of an open piece: double from lo + 1 while sign*fn > 0."""
    hi = lo + 1
    while sign * fn(hi) > 0:
        hi *= 2
        assert hi < 800, "piece does not close below Y = 800"
    return hi


def tau_mp(co, Y0, piece):
    Ak, om, f = mp.mpf(co.Ak), mp.mpf(co.omega), mp.mpf(co.f)
    Y0 = mp.mpf(Y0)

    def H(X, Y):
        return Ak * mp.cos(X) * mp.sinh(Y) - om * Y * Y / 2 - f * Y

    def HY(X, Y):
        return Ak * mp.cos(X) * mp.cosh(Y) - om * Y - f

    H0 = H(mp.pi, Y0)

    def level_height(X):
        if Y0 == 0:
            return mp.mpf(0)  # the bed is a streamline
        b = Ak * mp.cos(X)
        phi = lambda Y: HY(X, Y)
        # Roots of dX/dt in Y: one per monotone stretch of phi.
        breaks = [mp.mpf(0)]
        if b != 0 and om / b > 0:
            breaks.append(mp.asinh(om / b))
        roots = []
        for lo, hi in zip(breaks, breaks[1:] + [None]):
            if hi is None:
                if phi(lo) * (1 if b > 0 else -1) >= 0:
                    continue  # phi moves away from zero above lo
                hi = _grow(phi, lo, -1 if b > 0 else 1)
            if phi(lo) * phi(hi) < 0:
                roots.append(_bracketed(phi, lo, hi))
        g = lambda Y: H(X, Y) - H0
        lo = roots[piece - 1] if piece else mp.mpf(0)
        hi = roots[piece] if piece < len(roots) else _grow(
            g, lo, -1 if piece % 2 else 1)
        return _bracketed(g, lo, hi)

    def integrand(X):
        return 1 / abs(HY(X, level_height(X)))

    value, err = mp.quad(integrand, [0, mp.pi], error=True, maxdegree=10)
    assert err < mp.mpf(10) ** -30 * value, (float(Y0), err, value)
    return 2 * value


def coeffs(name):
    params = from_mapping(PRESETS[name]["params"])
    co, shifted = SteadyCoeffs.from_params(params).normalized()
    return params, co, shifted


def main():
    mp.mp.dps = DPS
    out = {"dps": DPS, "levels_n": LEVELS_N, "presets": {}, "near_separatrix": []}
    memo = {}
    for name in PRESET_NAMES:
        params, co, shifted = coeffs(name)
        b = layer_boundaries(co)
        rows = []
        for Y0 in default_levels(params, shifted).tolist():
            layer = classify_layer(Y0, co, b)
            if layer not in TRANSIT_LAYERS:
                continue
            key = (co, Y0)
            if key not in memo:
                memo[key] = tau_mp(co, Y0, TRANSIT_LAYERS[layer])
            rows.append({"Y0": Y0, "layer": layer,
                         "tau": mp.nstr(memo[key], 30)})
            print(f"{name} Y0={Y0:.6g} {layer} tau={rows[-1]['tau']}",
                  file=sys.stderr)
        out["presets"][name] = {"Ak": co.Ak, "omega": co.omega, "f": co.f,
                                "levels": rows}
    for name, epsilons in NEAR_SEPARATRIX.items():
        params, co, shifted = coeffs(name)
        y_lower = layer_boundaries(co)["Y_lower"]
        for eps in epsilons:
            Y0 = y_lower * (1.0 - eps)
            tau = mp.nstr(tau_mp(co, Y0, 0), 30)
            out["near_separatrix"].append({"preset": name, "eps": eps, "Y0": Y0,
                                           "tau": tau})
            print(f"{name} eps={eps:g} Y0={Y0!r} tau={tau}", file=sys.stderr)
    OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Write ``reference_mp.json``: critical points and separatrix heights at 50
significant digits.

For each preset the steady-frame coefficients (Ak >= 0, omega, f) are the
only input taken from the package.  mpmath then finds, independently of
the package's solvers:

- every critical point at X = 0 and X = pi with Y <= Y_MAX: the roots of
  dX/dt = H_Y(X, .), bracketed on the monotone pieces of H_Y split by its
  interior stationary point and refined by ``findroot``;
- H at each critical point and both eigenvalues of its Hessian
  [[Hxx, Hxy], [Hxy, Hyy]], ascending (``eigsy``);
- where the lowest critical point at X = 0 is a saddle P0, the heights
  ``Y_lower`` and ``Y_upper`` where its level H = H(P0) crosses the X = pi
  section below and above the lowest critical point there.

Generation takes a few seconds; tier 1 only reads the file.  Rebuild it
on purpose with::

    PYTHONPATH=src python tests/make_reference_mp.py
"""

import json
import sys
from pathlib import Path

import mpmath as mp

from shearwave import SteadyCoeffs, from_mapping
from shearwave.cli import PRESETS

OUT = Path(__file__).with_name("reference_mp.json")
DPS = 50
PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4-left")
Y_MAX = 700


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
        if hi > 2 * Y_MAX:
            return None
    return hi


class Steady:
    def __init__(self, co):
        self.Ak, self.om, self.f = mp.mpf(co.Ak), mp.mpf(co.omega), mp.mpf(co.f)

    def H(self, X, Y):
        return self.Ak * mp.cos(X) * mp.sinh(Y) - self.om * Y * Y / 2 - self.f * Y

    def HY(self, X, Y):
        return self.Ak * mp.cos(X) * mp.cosh(Y) - self.om * Y - self.f

    def hessian(self, X, Y):
        c = self.Ak * mp.cos(X) * mp.sinh(Y)
        return -c, -self.Ak * mp.sin(X) * mp.cosh(Y), c - self.om

    def isocline_roots(self, X):
        """Roots of H_Y(X, .) in (0, Y_MAX], ascending."""
        b = self.Ak * mp.cos(X)
        phi = lambda Y: self.HY(X, Y)
        breaks = [mp.mpf(0)]
        if b != 0 and self.om / b > 0:
            breaks.append(mp.asinh(self.om / b))
        roots = []
        for lo, hi in zip(breaks, breaks[1:] + [None]):
            if hi is None:
                sign = -1 if b > 0 else 1  # phi heads to +inf if b > 0
                if sign * phi(lo) <= 0:
                    continue  # phi moves away from zero above lo
                hi = _grow(phi, lo, sign)
                if hi is None:
                    continue
            if phi(lo) * phi(hi) < 0:
                roots.append(_bracketed(phi, lo, hi))
        return [r for r in roots if 0 < r <= Y_MAX]


def reference(name):
    params = from_mapping(PRESETS[name]["params"])
    co, _ = SteadyCoeffs.from_params(params).normalized()
    s = Steady(co)
    points = []
    for X in (mp.mpf(0), +mp.pi):
        for Y in s.isocline_roots(X):
            Hxx, Hxy, Hyy = s.hessian(X, Y)
            eigs = sorted(mp.eigsy(mp.matrix([[Hxx, Hxy], [Hxy, Hyy]]),
                                   eigvals_only=True))
            points.append({
                "X": "0" if X == 0 else "pi", "Y": mp.nstr(Y, DPS),
                "H": mp.nstr(s.H(X, Y), DPS),
                "hessian_eigs": [mp.nstr(e, DPS) for e in eigs],
                "kind": "saddle" if eigs[0] * eigs[1] < 0 else "center"})
    out = {"Ak": co.Ak, "omega": co.omega, "f": co.f, "critical_points": points}
    at_zero = [cp for cp in points if cp["X"] == "0"]
    if at_zero and at_zero[0]["kind"] == "saddle":
        H0 = mp.mpf(at_zero[0]["H"])
        g = lambda Y: s.H(mp.pi, Y) - H0
        at_pi = [mp.mpf(cp["Y"]) for cp in points if cp["X"] == "pi"]
        hi = at_pi[0] if at_pi else _grow(g, mp.mpf(0), 1)
        out["Y_lower"] = mp.nstr(_bracketed(g, mp.mpf(0), hi), DPS)
        if len(at_pi) == 2:
            out["Y_upper"] = mp.nstr(_bracketed(g, at_pi[0], at_pi[1]), DPS)
    return out


def main():
    mp.mp.dps = DPS
    out = {"dps": DPS, "y_max": Y_MAX,
           "presets": {name: reference(name) for name in PRESET_NAMES}}
    for name, ref in out["presets"].items():
        kinds = [cp["kind"] for cp in ref["critical_points"]]
        print(f"{name}: {kinds} Y_lower={ref.get('Y_lower')} "
              f"Y_upper={ref.get('Y_upper')}", file=sys.stderr)
    OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Every preset draws its portrait up to heights where tracing used to fail,
and every separatrix point the CLI writes lies on its arm's level.

The level is checked with 40-digit mpmath H at each written point (X, Y),
against the arm's float level H0 from ``portrait.json``, by two bounds:

- everywhere, the representability bound
  ``4*(|H_X|*ulp(X) + |H_Y|*ulp(Y) + d0)``: H moves by |H_X|*ulp(X) over
  one ulp of X (likewise Y), and ``d0 = |H(saddle) - H0|`` is the rounding
  of the level itself, all that is left at the saddle, where the gradient
  vanishes.  Measured: at most 2.5 times the sum (case116, fig3);
- below Y = 20, ``1e-10*(1 + |H0|)``.  Measured: at most 6.3e-14.

The inputs are the five presets at ``--ymax`` 21, 22, 35, 100 and 350 and
the sweep-box scenarios of ``test_paths.HIGH_CRITICAL_POINTS``, whose
critical points lie above Y = 20, at ``--ymax`` 35.
"""

import csv
import functools
import json
import math

import mpmath as mp
import pytest

from shearwave.cli import PRESETS, main

from test_paths import HIGH_CRITICAL_POINTS

LOW_Y = 20.0
LOW_TOL = 1e-10
BOUND_FACTOR = 4.0

CASES = [pytest.param(["--preset", name], ymax, id=f"{name}-ymax{ymax}")
         for name in sorted(PRESETS) for ymax in (21, 22, 35, 100, 350)]
CASES += [pytest.param(["--g", "9.81", "--h", repr(h), "--k", repr(k), "--a", repr(a),
                        "--omega", repr(omega), "--branch", branch], 35,
                       id=f"{case}-ymax35")
          for case, ((h, k, a, omega, branch), _) in sorted(HIGH_CRITICAL_POINTS.items())]


@pytest.mark.parametrize("source, ymax", CASES)
def test_separatrix_points_lie_on_their_level(source, ymax, tmp_path, capsys):
    assert main(["portrait", *source, "--ymax", str(ymax), "--format", "csv,json",
                 "--out", str(tmp_path), "--quiet"]) == 0
    (out,) = tmp_path.iterdir()
    summary = json.loads((out / "portrait.json").read_text(encoding="utf-8"))
    with open(out / "separatrices.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    p = summary["params"]
    saddles = {cp["label"]: (cp["X"], cp["Y"]) for cp in summary["critical_points"]}
    worst_ratio = worst_low = 0.0
    with mp.workdps(40):
        Ak, omega, f = abs(mp.mpf(p["A"]) * mp.mpf(p["k"])), mp.mpf(p["omega"]), mp.mpf(p["f"])

        @functools.lru_cache(maxsize=None)
        def terms(x, y):
            """H, |H_X| and |H_Y| at (x, y); H is even in X, so mirror-image
            points, half of those written, share one evaluation."""
            X, Y = mp.mpf(x), mp.mpf(y)
            cos, sin = mp.cos_sin(X)
            e = mp.exp(Y)
            sinh, cosh = (e - 1 / e) / 2, (e + 1 / e) / 2
            return (Ak * cos * sinh - omega * Y * Y / 2 - f * Y,
                    abs(Ak * sin * sinh), abs(Ak * cos * cosh - omega * Y - f))

        for row in rows:
            arm = summary["separatrix_arms"][int(row["branch_label"][3:].split("_")[0])]
            H0 = mp.mpf(arm["H"])
            d0 = abs(terms(*saddles[arm["saddle"]])[0] - H0)
            x, y = float(row["X"]), float(row["Y"])
            H, H_X, H_Y = terms(abs(x), y)
            err = abs(H - H0)
            bound = H_X * math.ulp(x) + H_Y * math.ulp(y) + d0
            ratio = float(err / bound) if bound else (math.inf if err else 0.0)
            worst_ratio = max(worst_ratio, ratio)
            if y < LOW_Y:
                worst_low = max(worst_low, float(err / (1 + abs(H0))))
    assert rows
    assert worst_ratio <= BOUND_FACTOR, worst_ratio
    assert worst_low <= LOW_TOL, worst_low

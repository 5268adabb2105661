"""Steady-frame phase portraits: the array face of ``phase``.

The portrait is computed by the numpy-free ``phase`` module, whose names
are re-exported here; this module returns its polylines as (n, 2) numpy
arrays and adds the array helpers ``phi`` and ``infinity_isocline``.
"""

from __future__ import annotations

import numpy as np

from . import phase
from .errors import UnsupportedConfig
from .params import Y_SEARCH_MAX
from .phase import (LEVEL_TOL, REAPPROACH_DIST, SADDLE_OFFSET, SEPARATRIX_DIRECTIONS,
                    SVG_STYLE, IsoclineBranch, PhasePortrait,
                    SeparatrixTrace, isocline_csv_rows, portrait_json,
                    portrait_summary, portrait_svg, separatrix_csv_rows)
from .steady import (_BRENT_RTOL, ROOT_XTOL, BifurcationScan, CriticalPoint, ScanRow,
                     SteadyCoeffs, _brentq, _polish_root, bifurcation_scan,
                     bracketed_root, classify_critical_point, find_critical_points,
                     isocline_roots)


def phi(Y, X, co: SteadyCoeffs):
    """X-velocity of the steady flow at fixed X, as a function of height."""
    return co.H_Y(X, np.asarray(Y, float), np)


def infinity_isocline(X: float, co: SteadyCoeffs, y_cap: float = 700.0) -> np.ndarray:
    """Heights Y > 0 where dX/dt vanishes at phase X, ascending (0, 1 or 2).

    Requires coefficients normalized so the effective Ak is nonnegative
    (apply the X -> X + pi shift first).
    """
    if co.Ak < 0:
        raise UnsupportedConfig(
            "coefficients must be normalized to Ak >= 0 (X -> X + pi shift)")
    return np.asarray(isocline_roots(float(X), co, float(y_cap)), dtype=float)


def _array_arm(arm: SeparatrixTrace) -> SeparatrixTrace:
    return arm._replace(points=np.asarray(arm.points, dtype=float))


def trace_separatrix(saddle: CriticalPoint, co: SteadyCoeffs, direction: str,
                     ymax: float = Y_SEARCH_MAX,
                     critical_points: list[CriticalPoint] | None = None,
                     max_points: int = 100000) -> SeparatrixTrace:
    """``phase.trace_separatrix`` with the points as an (n, 2) array."""
    return _array_arm(phase.trace_separatrix(saddle, co, direction, ymax=ymax,
                                             critical_points=critical_points,
                                             max_points=max_points))


def build_phase_portrait(params, ymax: float = Y_SEARCH_MAX,
                         resolution: int = 481) -> PhasePortrait:
    """``phase.build_phase_portrait`` with each separatrix arm's points and
    each isocline branch's samples as (n, 2) arrays."""
    portrait = phase.build_phase_portrait(params, ymax=ymax, resolution=resolution)
    return portrait._replace(
        isoclines=[br._replace(samples=np.asarray(br.samples, dtype=float))
                   for br in portrait.isoclines],
        separatrices=[_array_arm(arm) for arm in portrait.separatrices])

"""Steady-frame phase portraits: the array face of ``phase``.

The portrait is computed by the numpy-free ``phase`` module, whose names
are re-exported here; this module returns its polylines as (n, 2) numpy
arrays and evaluates nothing itself.
"""

from __future__ import annotations

import numpy as np

from . import phase
from .params import Y_SEARCH_MAX
from .phase import (DEFAULT_RESOLUTION, SEPARATRIX_DIRECTIONS, SVG_STYLE, IsoclineBranch,
                    PhasePortrait, SeparatrixTrace, isocline_csv_rows, portrait_json,
                    portrait_summary, portrait_svg, separatrix_csv_rows)
from .steady import (_BRENT_RTOL, ROOT_XTOL, BifurcationScan, CriticalPoint, ScanRow,
                     SteadyCoeffs, _brentq, _polish_root, bifurcation_scan,
                     bracketed_root, classify_critical_point, find_critical_points,
                     isocline_roots)


def _array_arm(arm: SeparatrixTrace) -> SeparatrixTrace:
    return arm._replace(points=np.asarray(arm.points, dtype=float))


def trace_separatrix(saddle: CriticalPoint, co: SteadyCoeffs, direction: str,
                     ymax: float = Y_SEARCH_MAX,
                     critical_points: list[CriticalPoint] | None = None) -> SeparatrixTrace:
    """``phase.trace_separatrix`` with the points as an (n, 2) array."""
    return _array_arm(phase.trace_separatrix(saddle, co, direction, ymax=ymax,
                                             critical_points=critical_points))


def build_phase_portrait(params, ymax: float = Y_SEARCH_MAX,
                         resolution: int = DEFAULT_RESOLUTION) -> PhasePortrait:
    """``phase.build_phase_portrait`` with each separatrix arm's points and
    each isocline branch's samples as (n, 2) arrays."""
    portrait = phase.build_phase_portrait(params, ymax=ymax, resolution=resolution)
    return portrait._replace(
        isoclines=[br._replace(samples=np.asarray(br.samples, dtype=float))
                   for br in portrait.isoclines],
        separatrices=[_array_arm(arm) for arm in portrait.separatrices])

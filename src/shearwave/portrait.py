"""Steady-frame phase portraits: the array face of ``phase``.

The portrait is computed by the numpy-free ``phase`` module; this module
returns its polylines as (n, 2) numpy arrays and evaluates nothing
itself.  Every other portrait name is imported from ``phase`` or
``steady``, where it is defined.
"""

from __future__ import annotations

import numpy as np

from . import phase
from .params import Y_SEARCH_MAX
# The four exporters, bifurcation_scan and find_critical_points are here
# only for perfbench's tracer, which binds them on this module
# (``TARGETS`` in ``perfbench/tracing.py``).
from .phase import (DEFAULT_RESOLUTION, PhasePortrait, SeparatrixTrace, isocline_csv_rows,
                    portrait_json, portrait_svg, separatrix_csv_rows)
from .steady import CriticalPoint, SteadyCoeffs, bifurcation_scan, find_critical_points


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

"""Linear gravity water waves on a constant-vorticity shear current.

Closed-form linear wave fields, the finite-depth dispersion relation with
its two branches, steady-frame Hamiltonian phase portraits (critical
points, isocline branching, separatrices, the vorticity bifurcation), and
physical particle paths with per-period drift.

Only ``errors`` and ``params`` (no numpy) load with the package; every
other public name, and each of the other submodules, imports on first
access.
"""

import importlib

from .errors import DomainError, NumericsError, ShearwaveError, UnsupportedConfig
from .params import (Regime, WaveParams, branching_discriminant, classify_regime,
                     dispersion_residual, from_json_str, from_kv, from_mapping,
                     solve_dispersion, to_json_str, to_kv)

__version__ = "0.1.0"

#: Submodule of each public name that is imported on first access.
_LAZY = {
    **dict.fromkeys((
        "field_identity_residuals", "in_fluid", "pressure", "surface",
        "velocity", "write_field_grid"), "fields"),
    **dict.fromkeys((
        "BifurcationScan", "CriticalPoint", "SteadyCoeffs", "bifurcation_scan",
        "classify_critical_point", "find_critical_points"), "steady"),
    **dict.fromkeys((
        "ClosedOrbit", "DriftReport", "classify_layer", "drift_per_period",
        "drift_profile", "find_closed_orbit", "layer_boundaries",
        "section_height", "transit_time_tau"), "drift"),
    **dict.fromkeys(("Trajectory", "read_seeds"), "drift"),
    "integrate_steady": "paths",
    **dict.fromkeys((
        "IsoclineBranch", "PhasePortrait", "SeparatrixTrace", "portrait_json",
        "portrait_svg"), "phase"),
    **dict.fromkeys(("build_phase_portrait", "trace_separatrix"), "portrait"),
}

_SUBMODULES = ("dop853", "drift", "fields", "paths", "phase", "portrait", "steady")

__all__ = sorted([
    "DomainError", "NumericsError", "Regime", "ShearwaveError", "UnsupportedConfig",
    "WaveParams", "branching_discriminant", "classify_regime", "dispersion_residual",
    "from_json_str", "from_kv", "from_mapping", "solve_dispersion", "to_json_str",
    "to_kv", *_LAZY])


def __getattr__(name):
    # Not cached here: the package name always reads the submodule's current
    # binding, so a patched or wrapped submodule function is seen through it.
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_SUBMODULES})

"""Linear gravity water waves on a constant-vorticity shear current.

Closed-form linear wave fields, the finite-depth dispersion relation with
its two branches, steady-frame Hamiltonian phase portraits (critical
points, isocline branching, separatrices, the vorticity bifurcation), and
physical particle paths with per-period drift.
"""

from .errors import (DomainError, NumericsError, ShearwaveError, TraceError,
                     UnsupportedConfig)
from .fields import (SteadyCoeffs, field_identity_residuals, hamiltonian,
                     hamiltonian_gradient, in_fluid, nondim_solution, pressure,
                     steady_rhs, surface, velocity, write_field_grid)
from .params import (NondimParams, Regime, WaveParams, classify_regime,
                     dispersion_residual, from_kv, from_json_str, from_mapping,
                     nondimensionalize, redimensionalize, shear_profile,
                     solve_dispersion, to_json_str, to_kv)
from .paths import (ClosedOrbit, DriftReport, Trajectory, classify_layer,
                    drift_per_period, drift_profile, find_closed_orbit,
                    integrate_steady, layer_boundaries, read_seeds,
                    section_height, to_physical, to_steady, transit_time_tau)
from .portrait import (BifurcationScan, CriticalPoint, IsoclineBranch,
                       PhasePortrait, SeparatrixTrace, bifurcation_scan,
                       branching_discriminant, build_phase_portrait,
                       classify_critical_point, find_critical_points,
                       infinity_isocline, portrait_json, portrait_svg,
                       trace_separatrix)

__version__ = "0.1.0"

__all__ = [
    "BifurcationScan", "ClosedOrbit", "CriticalPoint", "DomainError",
    "DriftReport", "IsoclineBranch", "NondimParams",
    "NumericsError", "PhasePortrait", "Regime", "SeparatrixTrace",
    "ShearwaveError", "SteadyCoeffs", "TraceError", "Trajectory",
    "UnsupportedConfig", "WaveParams", "bifurcation_scan",
    "branching_discriminant", "build_phase_portrait", "classify_critical_point",
    "classify_layer", "classify_regime", "dispersion_residual",
    "drift_per_period", "drift_profile", "field_identity_residuals",
    "find_closed_orbit", "find_critical_points", "from_json_str", "from_kv",
    "from_mapping", "hamiltonian", "hamiltonian_gradient", "in_fluid",
    "infinity_isocline", "integrate_steady", "layer_boundaries",
    "nondim_solution", "nondimensionalize", "portrait_json", "portrait_svg",
    "pressure", "read_seeds", "redimensionalize", "section_height",
    "shear_profile",
    "solve_dispersion", "steady_rhs", "surface", "to_json_str", "to_kv",
    "to_physical", "to_steady", "trace_separatrix", "transit_time_tau",
    "velocity", "write_field_grid",
]

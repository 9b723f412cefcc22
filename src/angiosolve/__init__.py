"""Spectral splitting solver and fixed-point drivers for a nonlocal
vessel-tip / chemoattractant diffusion system on periodic boxes, plus an
invariant-check harness and slow reference solvers for validation."""

from .errors import (AngiosolveError, ConfigurationError, DataError,
                     OracleError, ParameterError, ResolutionError, ShapeError,
                     SignError)
from .grid import (GridSpec, PhaseField, SpatialField, integrate_phase,
                   lq_norm, speed_grid, speed_squared_grid)
from .harness import (BoundCheck, check_c_bounds, check_comparison,
                      check_energy, check_gronwall, check_positivity,
                      check_speed_bound, write_report)
from .heat import HeatPlan, VelocityProfile, gaussian_rho, heat_step
from .moments import (MomentSet, accumulate_time_integral, moments_of,
                      second_moment, speed_moment, vector_speed_moment,
                      velocity_marginal)
from .oracles import (VolterraResult, duhamel_reference, fd_reference,
                      uniqueness_probe, volterra_fundamental)
from .picard import (IterationDiagnostics, ModelParams, alpha_of_c,
                     picard_coupled, picard_pure)
from .scenarios import (Scenario, boundary_mass_fraction, build_initial_c,
                        build_initial_p, load_scenario, load_shipped_scenario,
                        realise, run_scenario, shipped_scenarios)
from .snapshots import load_field, save_field, write_moment_table
from .stepping import CoefficientTrack, Schedule, Trajectory, solve_linear

__version__ = "0.1.0"

__all__ = [
    "AngiosolveError", "BoundCheck", "CoefficientTrack", "ConfigurationError",
    "DataError", "GridSpec", "HeatPlan",
    "IterationDiagnostics", "ModelParams", "MomentSet", "OracleError",
    "ParameterError", "PhaseField", "ResolutionError", "Scenario", "Schedule",
    "ShapeError", "SignError", "SpatialField", "Trajectory", "VelocityProfile",
    "VolterraResult", "accumulate_time_integral", "alpha_of_c",
    "boundary_mass_fraction", "build_initial_c", "build_initial_p",
    "check_c_bounds", "check_comparison", "check_energy", "check_gronwall",
    "check_positivity", "check_speed_bound", "duhamel_reference",
    "fd_reference", "gaussian_rho", "heat_step",
    "integrate_phase", "load_field", "load_scenario", "load_shipped_scenario",
    "lq_norm", "moments_of", "picard_coupled", "picard_pure", "realise",
    "run_scenario", "save_field", "second_moment", "shipped_scenarios",
    "solve_linear", "speed_grid", "speed_moment",
    "speed_squared_grid", "uniqueness_probe", "vector_speed_moment",
    "velocity_marginal", "volterra_fundamental", "write_moment_table",
    "write_report",
]

"""Simulation toolkit for SDEs whose coefficients depend on the solution's law
through a finite vector of statistics, with density cross-validation and
first-variation (Malliavin) diagnostics."""

from .coefficients import (CoefficientModel, EllipticityReport,
                           StatisticFunctional, check_ellipticity,
                           diffusion_matrix, eval_diffusion, eval_drift,
                           jacobian_consistency_probe)
from .errors import (ConditioningError, ConfigError, ConservationError,
                     MvsimError, NumericError, PositivityError,
                     SimulationError, StabilityError)
from .fokkerplanck import (FPProblem, FPSolution, build_fp_problem,
                           derive_fp_coefficients, fp_statistics_curve,
                           gaussian_on_grid, solve_fp)
from .harness import (ExperimentConfig, emit_plotdata, list_presets,
                      run_experiment, validate_config)
from .malliavin import (EllipticityBoundReport, FirstVariationPath,
                        MalliavinCovariance, bundle_diagnostics,
                        covariance_curve, ellipticity_bound_check,
                        malliavin_covariance, malliavin_derivative,
                        simulate_first_variation, zy_residual)
from .measures import (EmpiricalMeasure, GridAxis, GridDensity, StatisticFlow,
                       empirical_statistics, grid_statistics, kde_1d,
                       l1_grid_distance, silverman_bandwidth, w2_empirical_1d,
                       w2_sliced, w2_to_dirac0)
from .particle import (InitialLaw, ParticlePath, PathBundle, TimeGrid,
                       coarsen_increments, draw_noise, euler_paths,
                       generate_brownian, initial_states, moment_curve,
                       particle_stream, simulate_frozen_flow,
                       simulate_interacting)
from .picard import (PicardRun, convergence_gap, iterate_frozen_flow, picard_run,
                     picard_vs_direct)
from .presets import PresetInstance, get_preset, preset_defaults, preset_names

__version__ = "0.1.0"

__all__ = [
    "CoefficientModel", "StatisticFunctional", "EllipticityReport",
    "check_ellipticity", "diffusion_matrix", "eval_drift", "eval_diffusion",
    "jacobian_consistency_probe",
    "MvsimError", "NumericError", "SimulationError", "StabilityError",
    "ConservationError", "PositivityError", "ConditioningError", "ConfigError",
    "EmpiricalMeasure", "GridAxis", "GridDensity", "StatisticFlow",
    "empirical_statistics", "grid_statistics", "kde_1d", "silverman_bandwidth",
    "l1_grid_distance", "w2_empirical_1d", "w2_sliced", "w2_to_dirac0",
    "InitialLaw", "TimeGrid", "ParticlePath", "PathBundle", "particle_stream",
    "generate_brownian", "coarsen_increments", "initial_states", "draw_noise",
    "euler_paths", "simulate_interacting", "simulate_frozen_flow", "moment_curve",
    "PicardRun", "convergence_gap", "picard_run", "iterate_frozen_flow",
    "picard_vs_direct",
    "FirstVariationPath", "MalliavinCovariance", "EllipticityBoundReport",
    "simulate_first_variation", "zy_residual", "malliavin_derivative",
    "malliavin_covariance", "covariance_curve", "ellipticity_bound_check",
    "bundle_diagnostics",
    "FPProblem", "FPSolution", "build_fp_problem", "gaussian_on_grid",
    "derive_fp_coefficients", "solve_fp", "fp_statistics_curve",
    "PresetInstance", "get_preset", "preset_names", "preset_defaults",
    "ExperimentConfig", "validate_config", "run_experiment", "list_presets",
    "emit_plotdata",
]

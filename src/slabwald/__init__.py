"""slabwald: image-charge Ewald summation for dielectric slab systems.

Exact doubly periodic reference solver, a reformulated padded-box solver with
switchable YB/ELC corrections, closed-form a-priori error estimators, and a
three-step parameter tuner.
"""

from ._threads import apply_thread_cap

apply_thread_cap()  # before numpy loads: SLABWALD_THREADS caps its BLAS pool

from .core import (ChargeSystem, DielectricSpec, DomainError, EnergyForces,
                   EwaldParams, ImageCharge, LevelSweep, Violation, image_position,
                   image_series, read_system, reflection_factors, validate,
                   write_system)
from .errors import (ErrorBudget, elc_energy_estimate, image_truncation_energy,
                     image_truncation_force, splitting_error, total_budget,
                     trapezoid_remainder_estimate)
from .ewald2d import (energy_homogeneous, energy_icm, forces_fd_check,
                      g0_alpha, icm_level_sweep)
from .ewald3d import (elc_correction, fourier3d_energy, solve, solve_levels,
                      yb_correction)
from .harness import (SweepConfig, SweepRow, fit_decay, gen_system,
                      parse_config, rows_to_csv, run_sweep)
from .tuner import ToleranceRequest, TuneResult, select_all, select_Lz, select_M

__version__ = "0.1.0"

__all__ = [
    "ChargeSystem", "DielectricSpec", "DomainError", "EnergyForces",
    "EwaldParams", "ImageCharge", "LevelSweep", "Violation", "image_position",
    "image_series", "read_system", "reflection_factors", "validate",
    "write_system",
    "ErrorBudget", "elc_energy_estimate", "image_truncation_energy",
    "image_truncation_force", "splitting_error", "total_budget",
    "trapezoid_remainder_estimate",
    "energy_homogeneous", "energy_icm", "forces_fd_check", "g0_alpha",
    "icm_level_sweep",
    "elc_correction", "fourier3d_energy", "solve", "solve_levels",
    "yb_correction",
    "SweepConfig", "SweepRow", "fit_decay", "gen_system", "parse_config",
    "rows_to_csv", "run_sweep",
    "ToleranceRequest", "TuneResult", "select_all", "select_Lz", "select_M",
]

"""Oscillation-free energy-based DG solver for second-order wave equations."""

__version__ = "0.1.0"

from .basis import QuadratureRule, gauss_rule, legendre_deriv, legendre_eval
from .diagnostics import (
    ConvergenceTable,
    FrontComparison,
    OscillationReport,
    bin_average,
    compare_front_positions,
    energy,
    front_positions,
    gradient_l2_error,
    l2_error,
    level_crossings,
    merge_close,
    oscillation_metrics,
)
from .field import DGField1D, DGField2D
from .mesh import Mesh1D, Mesh2D, cartesian_mesh_2d, perturb_mesh_1d, uniform_mesh_1d
from .scheme1d import (
    SOURCES,
    FluxParams,
    SolverConfig,
    SourceTerm,
    flux_from_name,
    numerical_fluxes,
)
from .scheme2d import damping_coeffs_2d
from .timeint import EnergyTrace, SolverAbort, TimePlan, dt_rule, integrate, ssp_rk3_step

__all__ = [
    # basis
    "QuadratureRule", "gauss_rule", "legendre_deriv", "legendre_eval",
    # diagnostics
    "ConvergenceTable", "FrontComparison", "OscillationReport", "bin_average",
    "compare_front_positions", "energy", "front_positions",
    "gradient_l2_error", "l2_error", "level_crossings", "merge_close", "oscillation_metrics",
    # field
    "DGField1D", "DGField2D",
    # mesh
    "Mesh1D", "Mesh2D", "cartesian_mesh_2d", "perturb_mesh_1d", "uniform_mesh_1d",
    # scheme1d
    "SOURCES", "FluxParams", "SolverConfig", "SourceTerm", "flux_from_name",
    "numerical_fluxes",
    # scheme2d
    "damping_coeffs_2d",
    # timeint
    "EnergyTrace", "SolverAbort", "TimePlan", "dt_rule", "integrate", "ssp_rk3_step",
]

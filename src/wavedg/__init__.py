"""Oscillation-free energy-based DG solver for second-order wave equations."""

__version__ = "0.1.0"

from .basis import BasisSpec, QuadratureRule, gauss_rule, legendre_deriv, legendre_eval
from .diagnostics import (
    ConvergenceTable,
    FrontComparison,
    OscillationReport,
    bin_average,
    compare_front_positions,
    energy,
    fit_rates,
    front_positions,
    gradient_l2_error,
    l2_error,
    level_crossings,
    merge_close,
    oscillation_metrics,
)
from .field import DGField1D, DGField2D, Traces, interface_traces, project_down
from .mesh import Mesh1D, Mesh2D, cartesian_mesh_2d, perturb_mesh_1d, uniform_mesh_1d
from .scheme1d import (
    SOURCES,
    DampingCoeffs,
    FluxParams,
    SolverConfig,
    SourceTerm,
    boundary_closure,
    chi_source_correction,
    damping_coeffs_1d,
    flux_from_name,
    numerical_fluxes,
    semidiscrete_rhs_1d,
    solve_ut,
    solve_vt,
)
from .scheme2d import damping_coeffs_2d, fluxes_2d, semidiscrete_rhs_2d, vertex_jumps
from .timeint import EnergyTrace, SolverAbort, TimePlan, dt_rule, integrate, ssp_rk3_step

__all__ = [
    # basis
    "BasisSpec", "QuadratureRule", "gauss_rule", "legendre_deriv", "legendre_eval",
    # diagnostics
    "ConvergenceTable", "FrontComparison", "OscillationReport", "bin_average",
    "compare_front_positions", "energy", "fit_rates", "front_positions",
    "gradient_l2_error", "l2_error", "level_crossings", "merge_close", "oscillation_metrics",
    # field
    "DGField1D", "DGField2D", "Traces", "interface_traces", "project_down",
    # mesh
    "Mesh1D", "Mesh2D", "cartesian_mesh_2d", "perturb_mesh_1d", "uniform_mesh_1d",
    # scheme1d
    "SOURCES", "DampingCoeffs", "FluxParams", "SolverConfig", "SourceTerm",
    "boundary_closure", "chi_source_correction", "damping_coeffs_1d", "flux_from_name",
    "numerical_fluxes", "semidiscrete_rhs_1d", "solve_ut", "solve_vt",
    # scheme2d
    "damping_coeffs_2d", "fluxes_2d", "semidiscrete_rhs_2d", "vertex_jumps",
    # timeint
    "EnergyTrace", "SolverAbort", "TimePlan", "dt_rule", "integrate", "ssp_rk3_step",
]

"""Fock-space numerics for negative binomial states.

Construction of the state family and its relatives, closed-form photon
statistics with brute-force cross-checks, SU(1,1) structure, quadrature
squeezing scans, quasiprobability distributions on phase-space grids,
and the generation-scheme dynamics, all on adaptively truncated bases.
"""

__version__ = "0.1.0"

from .dynamics import (
    EvolutionSpec,
    atom_passage,
    evolve_intensity_dependent,
    evolve_parametric,
    fidelity,
)
from .fock import (
    ConvergenceError,
    FockVector,
    TruncationError,
    TruncationPolicy,
    apply_annihilation,
    apply_creation,
    apply_diag,
    tail_mass_nbs,
)
from .phasespace import (
    GridSpec,
    PhaseSpaceGrid,
    PhaseSpacePoint,
    grid_evaluate,
    q_function,
    q_function_closed,
    s_distribution,
    wigner,
)
from .squeeze import (
    SqueezeScan,
    VarianceSample,
    default_eta_grid,
    field_moments,
    quadrature_variances,
    squeezing_scan,
    variances_at,
    x_squeezing_onset,
    y_squeezing_cutoff,
)
from .states import (
    NBSParams,
    PairBasisVector,
    excited_geometric,
    geometric_state,
    nbs,
    number_state,
    two_mode_geometric,
    two_mode_nbs,
)
from .stats import (
    StatsReport,
    factorial_moments,
    generating_function,
    mandel_q,
    mandel_q_numeric,
    stats_report,
    sub_poissonian_threshold,
)
from .su11 import (
    k_minus,
    k_plus,
    k_zero,
    ladder_residual,
    nonlinear_eigen_residual,
    sech_squared,
    su11_displace,
)

__all__ = [
    "ConvergenceError",
    "EvolutionSpec",
    "FockVector",
    "GridSpec",
    "NBSParams",
    "PairBasisVector",
    "PhaseSpaceGrid",
    "PhaseSpacePoint",
    "SqueezeScan",
    "StatsReport",
    "TruncationError",
    "TruncationPolicy",
    "VarianceSample",
    "apply_annihilation",
    "apply_creation",
    "apply_diag",
    "atom_passage",
    "default_eta_grid",
    "evolve_intensity_dependent",
    "evolve_parametric",
    "excited_geometric",
    "factorial_moments",
    "fidelity",
    "field_moments",
    "generating_function",
    "geometric_state",
    "grid_evaluate",
    "k_minus",
    "k_plus",
    "k_zero",
    "ladder_residual",
    "mandel_q",
    "mandel_q_numeric",
    "nbs",
    "nonlinear_eigen_residual",
    "number_state",
    "q_function",
    "q_function_closed",
    "quadrature_variances",
    "s_distribution",
    "sech_squared",
    "squeezing_scan",
    "stats_report",
    "sub_poissonian_threshold",
    "su11_displace",
    "tail_mass_nbs",
    "two_mode_geometric",
    "two_mode_nbs",
    "variances_at",
    "wigner",
    "x_squeezing_onset",
    "y_squeezing_cutoff",
]

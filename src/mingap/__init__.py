"""Desk-scale spectral toolkit for adiabatic interpolations.

Builds mixer/target Hamiltonian pairs (including the maximum-weight
k-clique encoding on a Hamming-weight-restricted space), tracks
gauge-continuous spectra along H(s) = (1-s) H0 + s H1, locates the
minimum gap, and measures anti-crossings through overlap families,
hyperbola fits and the identities tying the gap to those quantities.
"""

__version__ = "0.1.0"

from .basis import BasisSet, CapacityError, enumerate_basis
from .hamiltonian import (
    FinalLevelPartition,
    HamiltonianPair,
    ProblemGraph,
    build_clique_target,
    build_diagonal_target,
    build_swap_mixer,
    build_transverse_field,
    clique_pair,
    interpolate,
    partition_final_levels,
)
from .spectral import (
    DegeneracyError,
    EigendecompositionError,
    MinGapResult,
    SpectralSweep,
    decompose_interpolated,
    eigenvalue_derivative,
    eigenvalue_second_derivative,
    eigenvector_derivative,
    energy_identity_residual,
    energy_identity_residuals,
    failure_condition_residual,
    gap_identity_residual,
    gap_identity_residuals,
    min_gap,
    sweep,
)
from .anticrossing import (
    AntiCrossingPoint,
    AntiCrossingReport,
    GapBounds,
    OverlapSeries,
    RotationResult,
    SolutionDerivativeResult,
    StationarityError,
    SwapMeasurement,
    WilkinsonFit,
    build_report,
    compute_overlaps,
    gap_decomposition_residual,
    measure_choi,
    measure_solution_swap,
    min_gap_bounds,
    rotation_residuals,
    solution_derivative_residuals,
    wilkinson_fit,
)
from .clique import (
    BruteForceResult,
    CliqueInstance,
    brute_force,
    random_instance,
    toy_example_1,
    toy_example_2,
)

__all__ = [
    "__version__",
    "BasisSet", "CapacityError", "enumerate_basis",
    "HamiltonianPair", "ProblemGraph", "build_clique_target", "build_diagonal_target",
    "build_swap_mixer", "build_transverse_field", "clique_pair", "interpolate",
    "DegeneracyError", "EigendecompositionError", "MinGapResult",
    "SpectralSweep", "decompose_interpolated",
    "eigenvalue_derivative", "eigenvalue_second_derivative", "eigenvector_derivative",
    "energy_identity_residual", "energy_identity_residuals", "failure_condition_residual",
    "gap_identity_residual", "gap_identity_residuals",
    "min_gap", "sweep",
    "AntiCrossingPoint", "AntiCrossingReport", "FinalLevelPartition", "GapBounds",
    "OverlapSeries",
    "RotationResult",
    "SolutionDerivativeResult", "StationarityError", "SwapMeasurement",
    "WilkinsonFit", "build_report", "compute_overlaps",
    "gap_decomposition_residual", "measure_choi", "measure_solution_swap", "min_gap_bounds",
    "partition_final_levels", "rotation_residuals", "solution_derivative_residuals",
    "wilkinson_fit",
    "BruteForceResult", "CliqueInstance", "brute_force", "random_instance",
    "toy_example_1", "toy_example_2",
]

"""The paper's primary contribution: the force-directed global placer."""

from .checkpoint import (
    CHECKPOINT_SCHEMA,
    PlacerCheckpoint,
    load_checkpoint,
    netlist_signature,
    save_checkpoint,
    try_load_checkpoint,
)
from .config import PlacerConfig, STANDARD_K, FAST_K
from .density import DensityModel, DensityResult, density_grid, splat_bilinear
from .forces import CellForces, ForceCalculator
from .health import (
    HealthGuard,
    NumericalHealthError,
    array_stats,
    check_finite,
)
from .linearization import linearization_factors
from .placer import (
    IterationStats,
    KraftwerkPlacer,
    PlacementResult,
)
from .poisson import (
    ForceField,
    PoissonSolver,
    bilinear_sample,
    curl,
    divergence,
    force_field_fft,
    solver_for_grid,
)
from .b2b import B2BSystem
from .multilevel import MultilevelPlacer, MultilevelResult
from .quadratic import AssembledSystem, QuadraticSystem
from .solver import (
    RECOVERY_RUNGS,
    ShiftedOperator,
    SolveResult,
    conjugate_gradient,
    solve_kkt,
    solve_spd,
    solve_with_recovery,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "PlacerCheckpoint",
    "load_checkpoint",
    "netlist_signature",
    "save_checkpoint",
    "try_load_checkpoint",
    "HealthGuard",
    "NumericalHealthError",
    "array_stats",
    "check_finite",
    "PlacerConfig",
    "STANDARD_K",
    "FAST_K",
    "DensityModel",
    "DensityResult",
    "density_grid",
    "splat_bilinear",
    "CellForces",
    "ForceCalculator",
    "linearization_factors",
    "IterationStats",
    "KraftwerkPlacer",
    "PlacementResult",
    "ForceField",
    "PoissonSolver",
    "solver_for_grid",
    "bilinear_sample",
    "curl",
    "divergence",
    "force_field_fft",
    "AssembledSystem",
    "B2BSystem",
    "MultilevelPlacer",
    "MultilevelResult",
    "QuadraticSystem",
    "RECOVERY_RUNGS",
    "ShiftedOperator",
    "SolveResult",
    "conjugate_gradient",
    "solve_kkt",
    "solve_spd",
    "solve_with_recovery",
]

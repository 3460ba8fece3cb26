"""The paper's primary contribution: the force-directed global placer.

Names resolve from their modules on first use (see :mod:`repro._lazy`),
so ``repro.core.config`` loads without the placer or scipy.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".checkpoint": (
        "CHECKPOINT_SCHEMA",
        "PlacerCheckpoint",
        "load_checkpoint",
        "netlist_signature",
        "save_checkpoint",
        "try_load_checkpoint",
    ),
    ".health": (
        "HealthGuard",
        "NumericalHealthError",
        "array_stats",
        "check_finite",
    ),
    ".config": ("PlacerConfig", "STANDARD_K", "FAST_K"),
    ".density": ("DensityModel", "DensityResult", "density_grid", "splat_bilinear"),
    ".forces": ("CellForces", "ForceCalculator"),
    ".linearization": ("linearization_factors",),
    ".placer": ("IterationStats", "KraftwerkPlacer", "PlacementResult"),
    ".poisson": (
        "ForceField",
        "PoissonSolver",
        "solver_for_grid",
        "bilinear_sample",
        "curl",
        "divergence",
        "force_field_fft",
    ),
    ".quadratic": ("AssembledSystem", "QuadraticSystem"),
    ".b2b": ("B2BSystem",),
    ".multilevel": ("MultilevelPlacer", "MultilevelResult"),
    ".solver": (
        "RECOVERY_RUNGS",
        "ShiftedOperator",
        "SolveResult",
        "conjugate_gradient",
        "solve_kkt",
        "solve_spd",
        "solve_with_recovery",
    ),
})

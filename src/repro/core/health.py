"""Numerical-health guardrails for the placement pipeline.

Kraftwerk's loop is a fixed-point iteration with no convergence guarantee:
the paper itself warns that overscaled forces "throw cells across the chip".
The fast paths added for performance (warm-started CG, loose adaptive
tolerances, cached FFT kernels) fail *silently* when the numerics go bad —
a NaN in the density map propagates through the FFT into every force, the
CG solve happily iterates on garbage, and the run either hangs for the full
iteration budget or returns non-finite positions.

This module provides:

- :class:`NumericalHealthError` — a structured error carrying the
  iteration, pipeline phase, and offending statistics, so a failed run can
  be attributed to density/field/force/solve instead of "NaN somewhere";
- :class:`HealthGuard` — cheap per-transformation checks (one
  ``np.isfinite`` reduction per array) that the placer runs between
  pipeline phases.  The guard never changes any value on the happy path:
  it only observes, so guarded and unguarded runs are bit-identical;
- the fault-injection hook registry used by :mod:`repro.testing.faults`.
  Production code consults the registry with a single ``if _FAULT_HOOKS:``
  dict-truthiness check, so the hooks cost nothing when no fault harness
  is installed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

#: Pipeline phases a health failure can be attributed to, in dataflow order.
PHASES = ("density", "field", "force", "solve", "position")
#: The placer's force-explosion threshold: a solved position farther than
#: this multiple of the region half-perimeter from the region center.
STEP_LIMIT_FACTOR = 64.0


class NumericalHealthError(ArithmeticError):
    """A numerical invariant of the placement pipeline was violated.

    Carries the placement transformation index (``iteration``), the
    pipeline ``phase`` (one of :data:`PHASES`), and a ``stats`` dict of
    offending statistics (NaN/Inf counts, magnitudes, escalation history).
    """

    def __init__(
        self,
        message: str,
        *,
        iteration: Optional[int] = None,
        phase: Optional[str] = None,
        stats: Optional[Dict] = None,
    ):
        self.iteration = iteration
        self.phase = phase
        self.stats = dict(stats) if stats else {}
        where = []
        if iteration is not None:
            where.append(f"iteration {iteration}")
        if phase is not None:
            where.append(f"phase {phase!r}")
        prefix = f"[{', '.join(where)}] " if where else ""
        detail = ""
        if self.stats:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
            detail = f" ({parts})"
        super().__init__(f"{prefix}{message}{detail}")


def array_stats(arr: np.ndarray) -> Dict[str, float]:
    """NaN/Inf counts plus finite magnitude extrema of an array."""
    arr = np.asarray(arr)
    finite = np.isfinite(arr)
    stats: Dict[str, float] = {
        "size": int(arr.size),
        "nan": int(np.isnan(arr).sum()),
        "inf": int(np.isinf(arr).sum()),
    }
    if finite.any():
        vals = arr[finite]
        stats["abs_max"] = float(np.abs(vals).max())
    return stats


def check_finite(
    name: str,
    arr: np.ndarray,
    *,
    iteration: Optional[int] = None,
    phase: Optional[str] = None,
) -> None:
    """Raise :class:`NumericalHealthError` if *arr* has NaN or Inf entries."""
    if not np.isfinite(np.asarray(arr)).all():
        raise NumericalHealthError(
            f"non-finite values in {name}",
            iteration=iteration,
            phase=phase,
            stats=array_stats(arr),
        )


class HealthGuard:
    """Per-transformation numerical checks for the placer's hot loop.

    The guard is pure observation: it never modifies an array, so enabling
    it cannot change a healthy run.  :data:`STEP_LIMIT_FACTOR` region
    half-perimeters bound how far any cell may legitimately sit from the
    region center after a solve; beyond that the forces have "thrown cells
    across the chip" and the transformation is declared exploded even when
    every coordinate is still finite.
    """

    def __init__(self, region, telemetry=None):
        bounds = region.bounds
        self._cx, self._cy = bounds.center
        self._reach = STEP_LIMIT_FACTOR * max(region.half_perimeter, 1e-12)
        self._telemetry = telemetry
        self.checks = 0

    def _count(self) -> None:
        self.checks += 1
        if self._telemetry is not None:
            self._telemetry.add("health_checks", 1)

    def check_density(self, density: np.ndarray, iteration: int) -> None:
        self._count()
        check_finite("density map", density, iteration=iteration, phase="density")

    def check_field(self, fx: np.ndarray, fy: np.ndarray, iteration: int) -> None:
        self._count()
        check_finite("force field fx", fx, iteration=iteration, phase="field")
        check_finite("force field fy", fy, iteration=iteration, phase="field")

    def check_forces(self, fx: np.ndarray, fy: np.ndarray, iteration: int) -> None:
        self._count()
        check_finite("cell forces fx", fx, iteration=iteration, phase="force")
        check_finite("cell forces fy", fy, iteration=iteration, phase="force")

    def check_solution(
        self, x: np.ndarray, y: np.ndarray, iteration: int
    ) -> None:
        """Solved positions must be finite and within physical reach."""
        self._count()
        check_finite("solved x positions", x, iteration=iteration, phase="solve")
        check_finite("solved y positions", y, iteration=iteration, phase="solve")
        if x.size:
            span = max(
                float(np.abs(x - self._cx).max()),
                float(np.abs(y - self._cy).max()),
            )
            if span > self._reach:
                raise NumericalHealthError(
                    "force explosion: solved positions left the neighborhood "
                    "of the region",
                    iteration=iteration,
                    phase="position",
                    stats={"max_offset": span, "limit": self._reach},
                )


# ----------------------------------------------------------------------
# Fault-injection hook registry
# ----------------------------------------------------------------------
#: Site name -> hook.  Empty in production; :mod:`repro.testing.faults`
#: installs hooks here under a try/finally.  Sites:
#:
#: - ``"field"``:  hook(forces: CellForces) -> None — may corrupt in place
#:   (called once per ForceCalculator.compute).
#: - ``"cg"``:     hook(result: SolveResult, A, b) -> SolveResult | None —
#:   may replace the CG result (called once per conjugate_gradient).
#: - ``"iteration"``: hook(iteration: int) -> None — called at the top of
#:   every placement transformation (e.g. to burn the wall-clock deadline,
#:   kill the worker process, or hang it mid-job).
#: - ``"checkpoint"``: hook(stage: str, tmp: Path, path: Path) -> None —
#:   called by :func:`repro.core.checkpoint.save_checkpoint` at
#:   ``"pre_rename"`` (tmp file written, atomic rename pending) and
#:   ``"post_rename"`` (snapshot committed), so torn-write and
#:   corrupted-snapshot scenarios can be injected deterministically.
#: - ``"worker_start"``: hook(worker_id: int) -> None — called once as a
#:   pool worker starts (e.g. to simulate a slow cold start).
_FAULT_HOOKS: Dict[str, Callable] = {}


def fire_hook(site: str, *args, **kwargs):
    """Invoke the hook at *site* if one is installed (else no-op).

    Production call sites guard with ``if _FAULT_HOOKS:`` first, so the
    cost with no harness installed stays one dict truthiness check.
    """
    hook = _FAULT_HOOKS.get(site)
    if hook is not None:
        return hook(*args, **kwargs)
    return None


def install_fault_hook(site: str, hook: Callable) -> None:
    """Install *hook* at *site*; use :mod:`repro.testing.faults` instead."""
    _FAULT_HOOKS[site] = hook


def remove_fault_hook(site: str) -> None:
    _FAULT_HOOKS.pop(site, None)


def clear_fault_hooks() -> None:
    _FAULT_HOOKS.clear()

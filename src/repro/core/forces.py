"""Per-cell additional forces: density → field → sampled, scaled forces.

This is the glue of Section 4.1: compute the density of the current
placement, evaluate the Poisson force field, sample it at every movable
cell, and choose the proportionality constant ``k`` so the strongest force
equals the pull of a net of length ``K (W + H)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..backend import NUMPY, Backend
from ..geometry import PlacementRegion
from ..netlist import Netlist, Placement
from ..observability import NULL_TELEMETRY
from .density import DensityModel, DensityResult
from .health import _FAULT_HOOKS
from .poisson import ForceField, solver_for_grid


@dataclass
class CellForces:
    """Sampled and scaled forces for the movable cells (netlist order)."""

    fx: np.ndarray  # per movable cell, aligned with netlist.movable_indices
    fy: np.ndarray
    scale: float  # the constant k actually applied
    unevenness: float  # fraction of demand sitting above the even level
    field: ForceField
    density: DensityResult

    def max_magnitude(self) -> float:
        if self.fx.size == 0:
            return 0.0
        return float(np.hypot(self.fx, self.fy).max())


class ForceCalculator:
    """Computes the paper's additional forces for one netlist/region pair."""

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        density_model: Optional[DensityModel] = None,
        telemetry=NULL_TELEMETRY,
        backend: Optional[Backend] = None,
    ):
        self.netlist = netlist
        self.region = region
        self.telemetry = telemetry
        self.backend = backend if backend is not None else NUMPY
        self.density_model = density_model or DensityModel(
            netlist, region, backend=self.backend
        )
        # One spectral solver per calculator: the grid is fixed, so the
        # spectral plans are computed exactly once for the placer's
        # lifetime (and shared across same-grid calculators via the
        # module cache, keyed by geometry and backend).
        self.poisson_solver = solver_for_grid(
            self.density_model.grid, self.backend
        )

    def reference_force(self, K: float) -> float:
        """The force of a net of length ``K (W + H)`` (unit spring constant)."""
        return K * self.region.half_perimeter

    def compute(
        self,
        placement: Placement,
        K: float,
        extra_demand: Optional[np.ndarray] = None,
        stiffness: Optional[np.ndarray] = None,
        demand: Optional[np.ndarray] = None,
    ) -> CellForces:
        """Scaled forces at every movable cell for the current placement.

        ``extra_demand`` lets congestion / heat maps act as additional area
        demand (Section 5).  ``demand`` is an optional precomputed demand
        map for this exact placement (see :meth:`DensityModel.compute`).

        ``stiffness`` is the per-movable-cell diagonal of the current system
        matrix.  The paper scales the field so the strongest force equals the
        pull of a net of length ``K (W + H)``; a force only has meaning
        relative to the springs it fights, so with ``stiffness`` given we
        normalize the *Jacobi-predicted displacement* ``f_i / κ_i`` to
        ``K (W + H)`` instead of the bare magnitude.  Without it, a cell on
        a feeble spring would be thrown dozens of chip-widths per step.
        """
        telemetry = self.telemetry
        density = self.density_model.compute(
            placement, extra_demand=extra_demand, telemetry=telemetry,
            demand=demand,
        )
        with telemetry.span("poisson") as span:
            span.add("bins", density.grid.nx * density.grid.ny)
            field = self.poisson_solver.field(density)
        movable = self.netlist.movable_indices
        with telemetry.span("sample"):
            raw_fx, raw_fy = field.sample(
                placement.x[movable], placement.y[movable],
                backend=self.backend,
            )
        magnitude = np.hypot(raw_fx, raw_fy)
        max_mag = float(magnitude.max()) if magnitude.size else 0.0
        # Unevenness damps the kicks to zero as the distribution approaches
        # the target: without it, per-step normalization would amplify
        # residual density noise back to full strength forever and the
        # iteration would never settle.
        over_demand = float(np.maximum(density.density, 0.0).sum())
        total_demand = float(density.demand.sum())
        unevenness = min(1.0, over_demand / max(total_demand, 1e-12))
        if max_mag > 0.0:
            scale = unevenness * self.reference_force(K) / max_mag
        else:
            scale = 0.0
        # The scaled field is a *displacement* target: the strongest-pushed
        # cell should move K (W + H).  Converting it to a force through each
        # cell's own stiffness makes the Jacobi-predicted step equal that
        # target for every cell, instead of letting one feeble spring set a
        # global normalization that freezes everyone else.
        fx = scale * raw_fx
        fy = scale * raw_fy
        if stiffness is not None:
            if stiffness.shape != magnitude.shape:
                raise ValueError("stiffness must have one entry per movable cell")
            fx = fx * stiffness
            fy = fy * stiffness
        result = CellForces(
            fx=fx,
            fy=fy,
            scale=scale,
            unevenness=unevenness,
            field=field,
            density=density,
        )
        if _FAULT_HOOKS:
            hook = _FAULT_HOOKS.get("field")
            if hook is not None:
                hook(result)
        return result

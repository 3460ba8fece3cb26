"""Heat-driven placement (Section 5).

"By replacing the congestion map with a heat map we can use the same
approach to avoid hot spots in the layout": bins hotter than the average
contribute extra area demand proportional to their excess temperature, so
the density forces push power away from hot spots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import KraftwerkPlacer, PlacementResult, PlacerConfig
from ..geometry import PlacementRegion
from ..netlist import Netlist, Placement
from .heatmap import ThermalModel, ThermalResult


@dataclass
class HeatResult:
    result: PlacementResult
    thermal: ThermalResult  # final temperature field

    @property
    def placement(self) -> Placement:
        return self.result.placement

    @property
    def peak_temperature(self) -> float:
        return self.thermal.peak_temperature


class HeatDrivenPlacer:
    """Kraftwerk with the heat map folded into the density."""

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        config: Optional[PlacerConfig] = None,
        conductivity: float = 1.0e-4,
        heat_weight: float = 1.0,
    ):
        self.placer = KraftwerkPlacer(netlist, region, config)
        self.model = ThermalModel(
            region,
            grid=self.placer.force_calc.density_model.grid,
            conductivity=conductivity,
        )
        self.heat_weight = heat_weight
        if not np.any(netlist.powers > 0):
            raise ValueError("heat-driven placement needs cells with power > 0")

    def place(self, initial: Optional[Placement] = None) -> HeatResult:
        """Place with the power map folded into the density.

        The *power* map, not the solved temperature, drives the forces: heat
        diffusion smears hot spots into one broad chip-wide bump, which only
        pushes everything toward the boundary; the sharp power excess makes
        each hot cell demand extra area around itself, so hot cells separate
        from each other — which is what actually lowers the solved peak
        temperature.  Total extra demand is calibrated to ``0.4 *
        heat_weight`` of the region area — strong enough that the default
        weight visibly separates a hot module.
        """
        from .heatmap import power_map

        grid = self.model.grid
        region_area = self.placer.region.area

        def extra_demand(_iteration: int, placement: Placement) -> np.ndarray:
            power = power_map(placement, grid)
            excess = np.maximum(power - power.mean(), 0.0)
            total = float(excess.sum())
            if total <= 0.0:
                return grid.zeros()
            scale = self.heat_weight * 0.4 * region_area / total
            return scale * excess

        result = self.placer.place(initial=initial, extra_demand_hook=extra_demand)
        final_thermal = self.model.solve(result.placement)
        return HeatResult(result=result, thermal=final_thermal)

"""Steady-state thermal simulation on the placement grid.

The heat substrate for Section 5's heat-driven placement: cell power maps
onto grid bins, and the steady-state temperature field solves the discrete
heat equation

    -k ∆T = P,    T = T_ambient on the boundary

with a standard 5-point Laplacian and a Dirichlet boundary (the package
boundary is the heat sink).  Temperatures are relative to ambient; absolute
calibration is irrelevant for placement, which only reacts to the *shape*
of the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..geometry import Grid, PlacementRegion
from ..netlist import Netlist, Placement
from ..core.density import splat_bilinear


def power_map(placement: Placement, grid: Grid) -> np.ndarray:
    """Dissipated power per bin (watts), cell power splatted bilinearly."""
    nl = placement.netlist
    powers = nl.powers
    active = np.flatnonzero(powers > 0.0)
    if active.size == 0:
        return grid.zeros()
    return splat_bilinear(
        grid, placement.x[active], placement.y[active], powers[active]
    )


@dataclass
class ThermalResult:
    grid: Grid
    power: np.ndarray  # W per bin
    temperature: np.ndarray  # K above ambient per bin

    @property
    def peak_temperature(self) -> float:
        return float(self.temperature.max())

    @property
    def mean_temperature(self) -> float:
        return float(self.temperature.mean())


class ThermalModel:
    """Solves the steady-state heat equation for placements on one grid."""

    def __init__(
        self,
        region: PlacementRegion,
        grid: Optional[Grid] = None,
        bins: int = 32,
        conductivity: float = 1.0e-4,  # W / (um * K), silicon-ish lateral
    ):
        self.region = region
        self.grid = grid or Grid(region.bounds, bins, bins)
        self.conductivity = conductivity
        self._laplacian = self._build_laplacian()
        self._solver = spla.factorized(self._laplacian.tocsc())

    def _build_laplacian(self) -> sp.spmatrix:
        ny, nx = self.grid.shape
        n = nx * ny
        dx2 = self.grid.dx ** 2
        dy2 = self.grid.dy ** 2
        k = self.conductivity
        main = np.full(n, 2.0 * k / dx2 + 2.0 * k / dy2)
        east = np.full(n, -k / dx2)
        west = np.full(n, -k / dx2)
        north = np.full(n, -k / dy2)
        south = np.full(n, -k / dy2)
        # Dirichlet boundary: neighbors outside the grid are ambient (zero),
        # so boundary rows simply lose those couplings (handled by masking).
        east[np.arange(n) % nx == nx - 1] = 0.0
        west[np.arange(n) % nx == 0] = 0.0
        diags = [main, west[1:], east[:-1], south[nx:], north[:-nx]]
        offsets = [0, -1, 1, -nx, nx]
        return sp.diags(diags, offsets, shape=(n, n), format="csr")

    def solve(self, placement: Placement) -> ThermalResult:
        power = power_map(placement, self.grid)
        # Convert bin power (W) to volumetric source (W per area).
        rhs = (power / self.grid.bin_area).ravel()
        temperature = self._solver(rhs).reshape(self.grid.shape)
        return ThermalResult(grid=self.grid, power=power, temperature=temperature)

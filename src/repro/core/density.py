"""The supply-and-demand density model of Section 3.3 (Eq. 4).

``D(x, y) = Σ_i a_i(x, y) − s · A(x, y)`` where ``a_i`` is cell *i*'s area
indicator, ``A`` the placement-area indicator, and
``s = Σ w_i h_i / (W · H)``.  ``D > 0`` marks over-demand, ``D < 0`` free
supply, and its integral over the plane is zero — the property that makes
the Poisson problem well posed.

Discretization: cells at least as large as a bin are rasterized exactly
(fractional bin coverage); cells smaller than a bin are splatted onto the
four nearest bin centers with bilinear weights, which preserves total area
and first moments and is vastly faster for large standard-cell designs.
Cells that wander outside the region during the iteration are clamped to its
boundary for density purposes, so their demand pressure pushes them back in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backend import NUMPY, Backend
from ..geometry import Grid, PlacementRegion
from ..netlist import Netlist, Placement
from ..observability import NULL_TELEMETRY


#: Upper bound on density bins per axis (keeps the FFT cheap on huge
#: regions).
MAX_DENSITY_BINS = 256


def density_grid(region: PlacementRegion, netlist: Netlist) -> Grid:
    """Square-bin grid sized so one bin is roughly one average movable cell."""
    b = region.bounds
    if netlist.num_movable:
        side = float(np.sqrt(netlist.average_movable_area()))
    else:
        side = min(b.width, b.height) / 16.0
    side = max(side, max(b.width, b.height) / MAX_DENSITY_BINS)
    side = min(side, min(b.width, b.height) / 4.0)
    return Grid.square_bins(b, side)


def splat_bilinear(
    grid: Grid,
    x: np.ndarray,
    y: np.ndarray,
    mass: np.ndarray,
    backend: Optional[Backend] = None,
) -> np.ndarray:
    """Vectorized bilinear point-splat of masses onto bin centers.

    Exactly conserves total mass and the center of mass for points interior
    to the grid; boundary points are clamped.  ``backend`` routes the
    scatter to an accelerator; the result is always a host numpy array
    (and the default numpy path is bit-identical to the pre-backend code).
    """
    bk = backend if backend is not None else NUMPY
    if len(x) == 0:
        return bk.to_numpy(bk.zeros(grid.shape))
    # Position in units of bins, relative to the first bin center.
    gx = (bk.asarray(x) - grid.bounds.xlo) / grid.dx - 0.5
    gy = (bk.asarray(y) - grid.bounds.ylo) / grid.dy - 0.5
    gx = bk.clip(gx, 0.0, grid.nx - 1.0)
    gy = bk.clip(gy, 0.0, grid.ny - 1.0)
    if grid.nx > 1:
        ix0 = bk.clamp_max_int(bk.trunc_int(gx), grid.nx - 2)
        tx = gx - ix0
    else:
        ix0 = bk.trunc_int(bk.zeros((len(x),)))
        tx = bk.zeros((len(x),))
    if grid.ny > 1:
        iy0 = bk.clamp_max_int(bk.trunc_int(gy), grid.ny - 2)
        ty = gy - iy0
    else:
        iy0 = bk.trunc_int(bk.zeros((len(y),)))
        ty = bk.zeros((len(y),))
    ix1 = bk.clamp_max_int(ix0 + 1, grid.nx - 1)
    iy1 = bk.clamp_max_int(iy0 + 1, grid.ny - 1)
    m = bk.asarray(mass)
    # One fused bincount scatter: several times faster than np.add.at,
    # which dispatches per element through the ufunc machinery.
    idx = bk.concat(
        [
            iy0 * grid.nx + ix0,
            iy0 * grid.nx + ix1,
            iy1 * grid.nx + ix0,
            iy1 * grid.nx + ix1,
        ]
    )
    wts = bk.concat(
        [
            m * (1 - tx) * (1 - ty),
            m * tx * (1 - ty),
            m * (1 - tx) * ty,
            m * tx * ty,
        ]
    )
    out = bk.bincount(idx, wts, grid.nx * grid.ny)
    return bk.to_numpy(out).reshape(grid.shape)


@dataclass
class DensityResult:
    """Discrete density and its ingredients."""

    grid: Grid
    demand: np.ndarray  # cell area per bin
    supply_rate: float  # the paper's s
    density: np.ndarray  # demand - s * bin_area  (area units per bin)

    @property
    def normalized(self) -> np.ndarray:
        """Density as a dimensionless occupancy fraction per bin."""
        return self.density / self.grid.bin_area


class DensityModel:
    """Computes ``D(x, y)`` for placements of one netlist on one region."""

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        grid: Optional[Grid] = None,
        backend: Optional[Backend] = None,
    ):
        self.netlist = netlist
        self.region = region
        self.backend = backend if backend is not None else NUMPY
        self.grid = grid if grid is not None else density_grid(region, netlist)
        # Split cells once: small ones are splatted, large ones rasterized.
        small = (netlist.widths <= self.grid.dx) & (netlist.heights <= self.grid.dy)
        self._small = np.flatnonzero(small)
        self._large = np.flatnonzero(~small)

    def demand_map(self, placement: Placement) -> np.ndarray:
        """Cell area per bin, with out-of-region cells clamped to the edge."""
        nl = self.netlist
        b = self.region.bounds
        demand = np.zeros(self.grid.shape)
        if self._small.size:
            idx = self._small
            half_w = nl.widths[idx] / 2.0
            half_h = nl.heights[idx] / 2.0
            cx = np.clip(placement.x[idx], b.xlo + half_w, b.xhi - half_w)
            cy = np.clip(placement.y[idx], b.ylo + half_h, b.yhi - half_h)
            demand += splat_bilinear(
                self.grid, cx, cy, nl.areas[idx], backend=self.backend
            )
        if self._large.size:
            idx = self._large
            w = np.minimum(nl.widths[idx], b.width)
            h = np.minimum(nl.heights[idx], b.height)
            # Clamp into the region so no demand is lost off-grid.
            cx = np.clip(placement.x[idx], b.xlo + w / 2.0, b.xhi - w / 2.0)
            cy = np.clip(placement.y[idx], b.ylo + h / 2.0, b.yhi - h / 2.0)
            demand += self.grid.paint_rects(cx - w / 2.0, cy - h / 2.0, w, h)
        return demand

    def compute(
        self,
        placement: Placement,
        extra_demand: Optional[np.ndarray] = None,
        telemetry=NULL_TELEMETRY,
        demand: Optional[np.ndarray] = None,
    ) -> DensityResult:
        """The discrete density ``D``, optionally with extra demand folded in.

        ``extra_demand`` (same grid shape, area units) is how congestion and
        heat maps enter the force model (Section 5): they act as additional
        area demand.  The supply rate ``s`` is recomputed so the density
        still integrates to zero.

        ``demand`` short-circuits the rasterization with a demand map the
        caller already computed for this exact placement (the placer reuses
        its convergence-statistics map this way); it is never mutated.
        """
        with telemetry.span("density") as span:
            if demand is None:
                demand = self.demand_map(placement)
            else:
                if demand.shape != self.grid.shape:
                    raise ValueError(
                        f"precomputed demand shape {demand.shape} does not "
                        f"match grid {self.grid.shape}"
                    )
                span.add("reused_demand_maps", 1)
            if extra_demand is not None:
                if extra_demand.shape != demand.shape:
                    raise ValueError(
                        f"extra demand shape {extra_demand.shape} does not "
                        f"match grid {demand.shape}"
                    )
                demand = demand + extra_demand
            total = float(demand.sum())
            supply_rate = total / self.region.area
            density = demand - supply_rate * self.grid.bin_area
            span.add("bins", self.grid.nx * self.grid.ny)
            span.add("splatted_cells", self._small.size)
            span.add("rasterized_cells", self._large.size)
            return DensityResult(
                grid=self.grid,
                demand=demand,
                supply_rate=supply_rate,
                density=density,
            )

"""GORDIAN-style baseline placer [7, 14].

Quadratic placement under center-of-gravity constraints, alternated with
recursive min-cut partitioning:

1. Solve ``min 1/2 p^T C p + d^T p`` subject to one center-of-gravity
   equality constraint per region (each region's area-weighted mean cell
   position must sit at the region center) — a sparse KKT system.
2. Split every region that still holds more than ``cut_limit`` cells along
   its longer side; the cell bipartition is seeded by the geometric median
   split of the current placement and refined by Fiduccia–Mattheyses
   min-cut; the cut coordinate divides the region area in proportion to the
   two sides' cell areas.
3. Repeat until all regions are small, then hand the (nearly overlap-free)
   global placement to the final placer.

With ``linearize=True`` the net weights are re-derived from the current
placement every level, approximating the linear objective of GORDIAN-L [14].
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ...core.linearization import linearization_factors
from ...core.quadratic import QuadraticSystem
from ...core.solver import solve_kkt
from ...evaluation.wirelength import hpwl_meters
from ...geometry import PlacementRegion, Rect
from ...netlist import Netlist, Placement
from .fm import fm_bipartition


@dataclass
class GordianConfig:
    cut_limit: int = 30  # stop splitting below this many cells per region
    balance: float = 0.55
    fm_passes: int = 6
    linearize: bool = True
    clique_threshold: int = 20
    max_levels: int = 20
    seed: int = 7
    verbose: bool = False


@dataclass
class _Region:
    bounds: Rect
    cells: List[int]  # movable cell indices (netlist numbering)


@dataclass
class GordianResult:
    placement: Placement
    levels: int
    num_regions: int
    seconds: float
    history: List[float] = field(default_factory=list)  # hpwl per level

    @property
    def hpwl_m(self) -> float:
        return hpwl_meters(self.placement)


class GordianPlacer:
    """Constrained-QP + recursive partitioning global placer."""

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        config: Optional[GordianConfig] = None,
        net_weights: Optional[np.ndarray] = None,
    ):
        self.net_weights = net_weights
        if netlist.num_movable == 0:
            raise ValueError("netlist has no movable cells")
        self.netlist = netlist
        self.region = region
        self.config = config or GordianConfig()
        self.system = QuadraticSystem(
            netlist, clique_threshold=self.config.clique_threshold
        )
        self._var_of_cell = {}
        for var, cell in enumerate(netlist.movable_indices):
            self._var_of_cell[int(cell)] = var
        self._gamma = max(1e-6, 0.01 * min(region.width, region.height))

    # ------------------------------------------------------------------
    def place(self) -> GordianResult:
        cfg = self.config
        nl = self.netlist
        t0 = time.perf_counter()
        rng = np.random.default_rng(cfg.seed)
        regions = [
            _Region(bounds=self.region.bounds, cells=[int(i) for i in nl.movable_indices])
        ]
        placement = Placement.at_center(nl, self.region)
        history: List[float] = []
        levels = 0
        for level in range(cfg.max_levels):
            levels += 1
            placement = self._solve_constrained(placement, regions, first=(level == 0))
            history.append(hpwl_meters(placement))
            if cfg.verbose:
                print(
                    f"[gordian {nl.name}] level={level} regions={len(regions)} "
                    f"hpwl={history[-1]:.4f}m"
                )
            oversized = [r for r in regions if len(r.cells) > cfg.cut_limit]
            if not oversized:
                break
            regions = self._split_regions(regions, placement, rng)
        return GordianResult(
            placement=placement,
            levels=levels,
            num_regions=len(regions),
            seconds=time.perf_counter() - t0,
            history=history,
        )

    # ------------------------------------------------------------------
    def _solve_constrained(
        self, placement: Placement, regions: List[_Region], first: bool
    ) -> Placement:
        cfg = self.config
        nl = self.netlist
        if cfg.linearize and not first:
            lin_x, lin_y = linearization_factors(placement, gamma=self._gamma)
        else:
            lin_x = lin_y = None
        system = self.system.assemble(
            net_weights=self.net_weights,
            lin_x=lin_x,
            lin_y=lin_y,
            anchor_weight=1e-6 if nl.num_fixed else 1e-3,
            anchor_xy=self.region.bounds.center,
        )
        A, ux, uy = self._constraints(regions)
        x = solve_kkt(system.Ax, -system.bx, A, ux)
        y = solve_kkt(system.Ay, -system.by, A, uy)
        return self.system.placement_from_vars(x, y, placement)

    def _constraints(self, regions: List[_Region]):
        nl = self.netlist
        rows, cols, vals = [], [], []
        ux = np.zeros(len(regions))
        uy = np.zeros(len(regions))
        for r, reg in enumerate(regions):
            total = float(nl.areas[reg.cells].sum())
            if total <= 0:
                total = 1.0
            for cell in reg.cells:
                rows.append(r)
                cols.append(self._var_of_cell[cell])
                vals.append(float(nl.areas[cell]) / total)
            ux[r] = reg.bounds.cx
            uy[r] = reg.bounds.cy
        A = sp.coo_matrix(
            (vals, (rows, cols)), shape=(len(regions), self.system.n_vars)
        ).tocsr()
        return A, ux, uy

    # ------------------------------------------------------------------
    def _split_regions(
        self,
        regions: List[_Region],
        placement: Placement,
        rng: np.random.Generator,
    ) -> List[_Region]:
        cfg = self.config
        nl = self.netlist
        out: List[_Region] = []
        for reg in regions:
            if len(reg.cells) <= cfg.cut_limit:
                out.append(reg)
                continue
            horizontal = reg.bounds.width >= reg.bounds.height
            coords = (
                placement.x[reg.cells] if horizontal else placement.y[reg.cells]
            )
            areas = nl.areas[reg.cells]
            # Seed: median split along the region's longer dimension.
            order = np.argsort(coords, kind="stable")
            cum = np.cumsum(areas[order])
            half = cum[-1] / 2.0
            seed = np.ones(len(reg.cells), dtype=np.int8)
            seed[order[cum <= half]] = 0
            nets = self._induced_nets(reg.cells)
            result = fm_bipartition(
                num_cells=len(reg.cells),
                nets=nets,
                areas=areas,
                initial=seed,
                balance=cfg.balance,
                max_passes=cfg.fm_passes,
                rng=rng,
            )
            side0 = [c for c, s in zip(reg.cells, result.sides) if s == 0]
            side1 = [c for c, s in zip(reg.cells, result.sides) if s == 1]
            if not side0 or not side1:
                out.append(reg)
                continue
            frac = float(nl.areas[side0].sum()) / float(nl.areas[reg.cells].sum())
            b = reg.bounds
            if horizontal:
                cut = b.xlo + frac * b.width
                lo = Rect.from_bounds(b.xlo, b.ylo, cut, b.yhi)
                hi = Rect.from_bounds(cut, b.ylo, b.xhi, b.yhi)
            else:
                cut = b.ylo + frac * b.height
                lo = Rect.from_bounds(b.xlo, b.ylo, b.xhi, cut)
                hi = Rect.from_bounds(b.xlo, cut, b.xhi, b.yhi)
            out.append(_Region(bounds=lo, cells=side0))
            out.append(_Region(bounds=hi, cells=side1))
        return out

    def _induced_nets(self, cells: List[int]) -> List[List[int]]:
        """Nets restricted to the region's cells, in local numbering."""
        local = {cell: k for k, cell in enumerate(cells)}
        seen_nets = set()
        nets: List[List[int]] = []
        for cell in cells:
            for j in self.netlist.nets_of_cell(cell):
                if j in seen_nets:
                    continue
                seen_nets.add(j)
                ptr = self.netlist.net_ptr
                members = [
                    local[c]
                    for c in self.netlist.pin_cell[ptr[j]:ptr[j + 1]].tolist()
                    if c in local
                ]
                members = sorted(set(members))
                if len(members) >= 2:
                    nets.append(members)
        return nets

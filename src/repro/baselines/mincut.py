"""Pure min-cut recursive bisection placement (Dunlop & Kernighan [3]).

The classic first-generation partitioning placer the paper classifies under
"hierarchical subdivision ... with a min-cut objective": recursively split
the region (alternating cut direction with the longer side), bipartition the
cells of each region with Fiduccia–Mattheyses, and finally drop every
region's cells at its center.  No analytical solve at all — this is the
baseline that shows what the quadratic objective adds on top of pure
partitioning.

Terminal propagation: pins outside a region bias its bipartition by being
projected onto the region boundary and counted as fixed-side net members —
without it, recursive bisection ignores global connectivity entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..evaluation.wirelength import hpwl_meters
from ..geometry import PlacementRegion, Rect
from ..netlist import Netlist, Placement
from .gordian.fm import fm_bipartition


@dataclass
class MinCutConfig:
    cut_limit: int = 8  # stop splitting below this many cells
    balance: float = 0.55
    fm_passes: int = 6
    terminal_propagation: bool = True
    seed: int = 11


@dataclass
class _Region:
    bounds: Rect
    cells: List[int]


@dataclass
class MinCutResult:
    placement: Placement
    levels: int
    num_regions: int
    seconds: float

    @property
    def hpwl_m(self) -> float:
        return hpwl_meters(self.placement)


class MinCutPlacer:
    """Recursive FM bisection placement."""

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        config: Optional[MinCutConfig] = None,
    ):
        if netlist.num_movable == 0:
            raise ValueError("netlist has no movable cells")
        self.netlist = netlist
        self.region = region
        self.config = config or MinCutConfig()

    def place(self) -> MinCutResult:
        cfg = self.config
        nl = self.netlist
        t0 = time.perf_counter()
        rng = np.random.default_rng(cfg.seed)
        placement = Placement.at_center(nl, self.region)
        regions = [
            _Region(self.region.bounds, [int(i) for i in nl.movable_indices])
        ]
        levels = 0
        while any(len(r.cells) > cfg.cut_limit for r in regions):
            levels += 1
            regions = self._split_all(regions, placement, rng)
            # Drop cells at their region centers so terminal propagation at
            # the next level sees the current assignment.
            for reg in regions:
                placement.x[reg.cells] = reg.bounds.cx
                placement.y[reg.cells] = reg.bounds.cy
            if levels > 30:
                break
        placement.reset_fixed()
        return MinCutResult(
            placement=placement,
            levels=levels,
            num_regions=len(regions),
            seconds=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------
    def _split_all(
        self,
        regions: List[_Region],
        placement: Placement,
        rng: np.random.Generator,
    ) -> List[_Region]:
        out: List[_Region] = []
        for reg in regions:
            if len(reg.cells) <= self.config.cut_limit:
                out.append(reg)
                continue
            out.extend(self._split_one(reg, placement, rng))
        return out

    def _split_one(
        self,
        reg: _Region,
        placement: Placement,
        rng: np.random.Generator,
    ) -> List[_Region]:
        nl = self.netlist
        cfg = self.config
        horizontal = reg.bounds.width >= reg.bounds.height
        local = {cell: k for k, cell in enumerate(reg.cells)}
        n_local = len(reg.cells)

        # Induced hypergraph with terminal propagation: outside pins become
        # two virtual fixed vertices (low side, high side).
        LOW, HIGH = n_local, n_local + 1
        nets: List[List[int]] = []
        seen = set()
        mid = reg.bounds.cx if horizontal else reg.bounds.cy
        for cell in reg.cells:
            for j in nl.nets_of_cell(cell):
                if j in seen:
                    continue
                seen.add(j)
                members = set()
                pins = nl.pin_cell[nl.net_ptr[j]:nl.net_ptr[j + 1]].tolist()
                for pin_cell in pins:
                    if pin_cell in local:
                        members.add(local[pin_cell])
                    elif cfg.terminal_propagation:
                        coord = (
                            placement.x[pin_cell]
                            if horizontal
                            else placement.y[pin_cell]
                        )
                        members.add(LOW if coord < mid else HIGH)
                if len(members) >= 2:
                    nets.append(sorted(members))

        areas = np.ones(n_local + 2)
        areas[:n_local] = nl.areas[reg.cells]
        areas[LOW] = areas[HIGH] = 0.0
        initial = np.zeros(n_local + 2, dtype=np.int8)
        # Seed by current coordinate so cut direction aligns with geometry.
        coords = (
            placement.x[reg.cells] if horizontal else placement.y[reg.cells]
        )
        order = np.argsort(coords, kind="stable")
        cum = np.cumsum(areas[:n_local][order])
        initial[order[cum > cum[-1] / 2.0]] = 1
        initial[LOW], initial[HIGH] = 0, 1

        locked = np.zeros(n_local + 2, dtype=bool)
        locked[LOW] = locked[HIGH] = True
        result = fm_bipartition(
            num_cells=n_local + 2,
            nets=nets,
            areas=areas,
            initial=initial,
            balance=cfg.balance,
            max_passes=cfg.fm_passes,
            rng=rng,
            locked=locked,
        )
        sides = result.sides
        side0 = [reg.cells[k] for k in range(n_local) if sides[k] == 0]
        side1 = [reg.cells[k] for k in range(n_local) if sides[k] == 1]
        if not side0 or not side1:
            half = len(reg.cells) // 2
            side0, side1 = reg.cells[:half], reg.cells[half:]
        frac = float(nl.areas[side0].sum()) / float(nl.areas[reg.cells].sum())
        frac = min(max(frac, 0.1), 0.9)
        b = reg.bounds
        if horizontal:
            cut = b.xlo + frac * b.width
            lo = Rect.from_bounds(b.xlo, b.ylo, cut, b.yhi)
            hi = Rect.from_bounds(cut, b.ylo, b.xhi, b.yhi)
        else:
            cut = b.ylo + frac * b.height
            lo = Rect.from_bounds(b.xlo, b.ylo, b.xhi, cut)
            hi = Rect.from_bounds(b.xlo, cut, b.xhi, b.yhi)
        return [_Region(lo, side0), _Region(hi, side1)]

"""Mixed block/cell placement and floorplanning (Section 5).

The paper's headline flexibility claim: the algorithm "is able to handle
large mixed block/cell placement problems without treating blocks and cells
differently".  And indeed the global placement stage here *is* the plain
:class:`KraftwerkPlacer` — blocks are just big cells in the density model
and the quadratic system.  What blocks need extra is the back end:

1. overlap *between blocks* is removed by iterative pairwise separation
   (push overlapping blocks apart along the axis of least penetration),
2. block bottoms snap to the row grid,
3. the placed blocks become obstacles, rows are carved into segments around
   them, and the standard cells go through the same final placement as a
   flat design (:func:`~repro.legalize.final_placement`: the vectorized
   Abacus snap, then the vectorized improver) in the remaining segments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core import KraftwerkPlacer, PlacementResult, PlacerConfig
from ..evaluation.wirelength import hpwl_meters
from ..geometry import PlacementRegion, Rect
from ..legalize import final_placement
from ..netlist import CellKind, Netlist, Placement


@dataclass
class FloorplanResult:
    placement: Placement
    global_result: PlacementResult
    block_rects: List[Rect]
    block_overlap: float  # residual pairwise overlap between blocks
    seconds: float

    @property
    def hpwl_m(self) -> float:
        return hpwl_meters(self.placement)


class MixedSizePlacer:
    """Global placement + block separation + segment legalization."""

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        config: Optional[PlacerConfig] = None,
        separation_iterations: int = 300,
    ):
        self.netlist = netlist
        self.region = region
        self.config = config or PlacerConfig()
        self.separation_iterations = separation_iterations
        movable = netlist.movable_indices
        self.block_indices = movable[
            netlist.kind_mask(CellKind.BLOCK)[movable]
        ].tolist()

    # ------------------------------------------------------------------
    def place(self) -> FloorplanResult:
        t0 = time.perf_counter()
        placer = KraftwerkPlacer(self.netlist, self.region, self.config)
        global_result = placer.place()
        placement = global_result.placement.copy()

        if self.block_indices:
            self._separate_blocks(placement)
            self._snap_blocks_to_rows(placement)
            self._separate_blocks(placement)  # snap may reintroduce overlap

        final = final_placement(
            placement, self.region, obstacles=self._obstacles(placement)
        )

        rects = [final.rect_of(i) for i in self.block_indices]
        overlap = 0.0
        for a in range(len(rects)):
            for b in range(a + 1, len(rects)):
                overlap += rects[a].overlap_area(rects[b])
        return FloorplanResult(
            placement=final,
            global_result=global_result,
            block_rects=rects,
            block_overlap=overlap,
            seconds=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------
    # Block handling
    # ------------------------------------------------------------------
    def _separate_blocks(self, placement: Placement) -> None:
        """Pairwise shove until no two blocks overlap (or budget runs out)."""
        nl = self.netlist
        idx = self.block_indices
        b = self.region.bounds
        for _ in range(self.separation_iterations):
            moved = False
            for a in range(len(idx)):
                for c in range(a + 1, len(idx)):
                    i, j = idx[a], idx[c]
                    dx = placement.x[j] - placement.x[i]
                    dy = placement.y[j] - placement.y[i]
                    pen_x = (nl.widths[i] + nl.widths[j]) / 2.0 - abs(dx)
                    pen_y = (nl.heights[i] + nl.heights[j]) / 2.0 - abs(dy)
                    if pen_x <= 0.0 or pen_y <= 0.0:
                        continue
                    moved = True
                    if pen_x <= pen_y:
                        shift = (pen_x / 2.0 + 1e-6) * (1.0 if dx >= 0 else -1.0)
                        placement.x[i] -= shift
                        placement.x[j] += shift
                    else:
                        shift = (pen_y / 2.0 + 1e-6) * (1.0 if dy >= 0 else -1.0)
                        placement.y[i] -= shift
                        placement.y[j] += shift
            # Clamp blocks into the region after each sweep.
            for i in idx:
                half_w = nl.widths[i] / 2.0
                half_h = nl.heights[i] / 2.0
                placement.x[i] = float(np.clip(placement.x[i], b.xlo + half_w, b.xhi - half_w))
                placement.y[i] = float(np.clip(placement.y[i], b.ylo + half_h, b.yhi - half_h))
            if not moved:
                return

    def _snap_blocks_to_rows(self, placement: Placement) -> None:
        """Align each block's bottom edge with a row boundary."""
        if not self.region.rows:
            return
        nl = self.netlist
        row_h = self.region.row_height
        ylo0 = self.region.bounds.ylo
        for i in self.block_indices:
            bottom = placement.y[i] - nl.heights[i] / 2.0
            snapped = ylo0 + round((bottom - ylo0) / row_h) * row_h
            max_bottom = self.region.bounds.yhi - nl.heights[i]
            snapped = min(max(snapped, ylo0), max_bottom)
            placement.y[i] = snapped + nl.heights[i] / 2.0

    def _obstacles(self, placement: Placement) -> List[Rect]:
        """Blocks plus any fixed cells lying inside the core area."""
        obstacles = [placement.rect_of(i) for i in self.block_indices]
        nl = self.netlist
        for i in nl.fixed_indices:
            rect = placement.rect_of(int(i))
            if rect.overlaps(self.region.bounds) and rect.area > 0:
                inter = rect.intersection(self.region.bounds)
                if inter is not None and inter.area > 0.5 * rect.area:
                    obstacles.append(rect)
        return obstacles

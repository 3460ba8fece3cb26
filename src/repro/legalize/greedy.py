"""Tetris-style greedy legalization.

The simplest legalizer: sweep cells left-to-right, and for each cell pick
the (segment, position) append that minimizes its own displacement.  Cells
already placed never move again — faster than Abacus but usually with a
larger total displacement; kept both as a fallback and as an ablation
reference.

Candidate segments come from the same nearest-row spatial index the
vectorized Abacus uses (:class:`~repro.legalize.vector.RowIndex`): rows are
visited in increasing vertical distance and the expansion stops as soon as
the vertical cost alone exceeds the best candidate — an exact prune, since
the total cost is bounded below by the vertical term.  On row counts in the
hundreds (100k+-cell circuits) this replaces a full scan over every
segment per cell with a handful of nearby rows.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence

import numpy as np

from ..geometry import PlacementRegion, Rect
from ..netlist import CellKind, Placement
from .segments import build_segments
from .vector import LegalizationResult, RowIndex

_INF = float("inf")


class TetrisLegalizer:
    """Greedy row legalizer with obstacle-aware segments."""

    def __init__(self, region: PlacementRegion, obstacles: Sequence[Rect] = ()):
        self.region = region
        self.obstacles = list(obstacles)
        self.segments = build_segments(region, self.obstacles)
        if not self.segments:
            raise ValueError("no free segments to legalize into")
        self.index = RowIndex(self.segments)

    def legalize(self, placement: Placement) -> LegalizationResult:
        nl = placement.netlist
        tails = [seg.xlo for seg in self.segments]
        seg_xhi = [seg.xhi for seg in self.segments]
        seg_cy = [seg.center_y for seg in self.segments]
        row_segments = self.index.row_segments
        ys = self.index.row_y.tolist()
        nrows = len(ys)

        movable = nl.movable_indices
        targets = list(movable[~nl.kind_mask(CellKind.BLOCK)[movable]])
        targets.sort(key=lambda i: placement.x[i] - nl.widths[i] / 2.0)

        out = placement.copy()
        failed: List[int] = []
        for i in targets:
            width = float(nl.widths[i])
            x_desired = float(placement.x[i] - width / 2.0)
            y_desired = float(placement.y[i])
            best_cost = _INF
            best: Optional[int] = None
            best_x = 0.0
            # Two-pointer nearest-row expansion, ties to the lower row.
            hi = bisect_left(ys, y_desired)
            lo = hi - 1
            while lo >= 0 or hi < nrows:
                if lo < 0:
                    r = hi
                    hi += 1
                elif hi >= nrows:
                    r = lo
                    lo -= 1
                elif y_desired - ys[lo] <= ys[hi] - y_desired:
                    r = lo
                    lo -= 1
                else:
                    r = hi
                    hi += 1
                y_cost = (ys[r] - y_desired) ** 2
                if y_cost >= best_cost:
                    # Rows only get farther from here on; cost >= y-cost.
                    break
                for si in row_segments[r]:
                    # Clamp the desired left edge into the segment so a cell
                    # near the region's right edge can still slide in.
                    x_pos = x_desired
                    limit = seg_xhi[si] - width
                    if x_pos > limit:
                        x_pos = limit
                    if x_pos < tails[si]:
                        x_pos = tails[si]
                    if x_pos + width > seg_xhi[si] + 1e-9:
                        continue
                    cost = (x_pos - x_desired) ** 2 + y_cost
                    if cost < best_cost:
                        best_cost = cost
                        best = si
                        best_x = x_pos
            if best is None:
                failed.append(i)
                continue
            out.x[i] = best_x + width / 2.0
            out.y[i] = seg_cy[best]
            tails[best] = best_x + width
        out.reset_fixed()
        moved = out.displacement_from(placement)
        movable = nl.movable_indices
        return LegalizationResult(
            placement=out,
            mean_displacement=float(moved[movable].mean()) if movable.size else 0.0,
            max_displacement=float(moved[movable].max()) if movable.size else 0.0,
            failed_cells=failed,
        )

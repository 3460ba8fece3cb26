"""Domino-style window assignment improvement [17].

Domino formulates detailed placement as a sequence of transportation
problems: within a small window, cells are optimally re-assigned to
positions by a min-cost matching.  This implementation slides windows over
pairs of adjacent rows, builds the cost matrix "cell -> slot" from each
cell's independent HPWL contribution (other cells held at their current
positions), solves the assignment exactly (Hungarian method via
``scipy.optimize.linear_sum_assignment``), repacks the affected row spans
to restore exact legality, and keeps the window's result only if the true
HPWL of the affected nets improved.

Compared to the greedy pair-swap improver (:mod:`repro.legalize.improver`),
window assignment escapes local minima that need 3+ simultaneous moves, at
a higher cost per window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..geometry import PlacementRegion
from ..netlist import CellKind, Placement
from .improver import ImprovementResult


@dataclass
class _Slot:
    """A target location: row y plus the slot's center x."""

    x: float
    y: float


class DominoImprover:
    """Sliding-window optimal assignment detailed placement."""

    def __init__(
        self,
        region: PlacementRegion,
        window: int = 6,
        max_passes: int = 2,
        obstacles: Sequence = (),
    ):
        if window < 2:
            raise ValueError("window must be at least 2")
        self.region = region
        self.window = window
        self.max_passes = max_passes
        self.obstacles = list(obstacles)

    # ------------------------------------------------------------------
    def improve(self, placement: Placement) -> ImprovementResult:
        from ..evaluation.wirelength import net_hpwl

        out = placement.copy()
        hpwl_before = float(net_hpwl(out).sum())
        accepted = 0
        passes_run = 0
        for _ in range(self.max_passes):
            passes_run += 1
            pass_accepted = 0
            rows = self._rows_of(out)
            self._current_rows = rows
            row_ys = sorted(rows)
            for ri in range(len(row_ys)):
                group_rows = row_ys[ri : ri + 2]  # this row + the next
                cells = [c for y in group_rows for c in rows[y]]
                cells.sort(key=lambda i: out.x[i])
                for start in range(0, max(1, len(cells) - 1), self.window // 2):
                    window_cells = cells[start : start + self.window]
                    if len(window_cells) >= 2:
                        pass_accepted += self._optimize_window(out, window_cells)
            accepted += pass_accepted
            if pass_accepted == 0:
                break
        hpwl_after = float(net_hpwl(out).sum())
        return ImprovementResult(
            placement=out,
            passes=passes_run,
            moves_accepted=accepted,
            hpwl_before_um=hpwl_before,
            hpwl_after_um=hpwl_after,
        )

    # ------------------------------------------------------------------
    def _rows_of(self, placement: Placement) -> Dict[float, List[int]]:
        nl = placement.netlist
        rows: Dict[float, List[int]] = {}
        for i in nl.movable_indices:
            if nl.cells[i].kind is CellKind.BLOCK:
                continue
            rows.setdefault(round(float(placement.y[i]), 6), []).append(int(i))
        for lst in rows.values():
            lst.sort(key=lambda i: placement.x[i])
        return rows

    def _optimize_window(self, placement: Placement, cells: List[int]) -> int:
        """Assign the window's cells to its slots; 1 if an improvement stuck."""
        # Imported here: Domino is off by default, and scipy.optimize is
        # the largest import of the legalization stack.
        from scipy.optimize import linear_sum_assignment

        nl = placement.netlist
        slots = [
            _Slot(float(placement.x[i]), float(placement.y[i])) for i in cells
        ]
        n = len(cells)
        cost = np.zeros((n, n))
        for a, cell in enumerate(cells):
            for s, slot in enumerate(slots):
                cost[a, s] = self._cell_cost(placement, cell, slot, set(cells))
        row_ind, col_ind = linear_sum_assignment(cost)
        if all(int(r) == int(c) for r, c in zip(row_ind, col_ind)):
            return 0  # identity assignment: nothing to do

        nets = self._affected_nets(placement, cells)
        before = self._nets_hpwl(placement, nets)
        old = [(placement.x[i], placement.y[i]) for i in cells]
        old_keys = {round(float(y), 6) for _x, y in old}
        for a, s in zip(row_ind, col_ind):
            placement.x[cells[a]] = slots[s].x
            placement.y[cells[a]] = slots[s].y
        self._repack_rows(placement, cells)
        after = self._nets_hpwl(placement, nets)
        legal = self._window_legal(placement, cells)
        if legal and after < before - 1e-9:
            self._refresh_rows(placement, cells, old_keys)
            return 1
        for i, (x, y) in zip(cells, old):
            placement.x[i] = x
            placement.y[i] = y
        return 0

    def _refresh_rows(
        self, placement: Placement, cells: List[int], old_keys: Set[float]
    ) -> None:
        """Keep the cached row membership in sync after an accepted window."""
        rows = getattr(self, "_current_rows", None)
        if rows is None:
            return
        new_keys = {round(float(placement.y[i]), 6) for i in cells}
        window = set(cells)
        for key in old_keys | new_keys:
            kept = [c for c in rows.get(key, []) if c not in window]
            kept.extend(
                i for i in cells if round(float(placement.y[i]), 6) == key
            )
            rows[key] = kept

    def _cell_cost(
        self, placement: Placement, cell: int, slot: _Slot, moving: Set[int]
    ) -> float:
        """HPWL contribution of *cell* at *slot*, other window cells ignored.

        Bounding boxes are computed over the net's non-window pins plus this
        cell at the slot — the standard independent-cost approximation of
        the transportation formulation.
        """
        nl = placement.netlist
        total = 0.0
        for j in nl.nets_of_cell(cell):
            xs: List[float] = []
            ys: List[float] = []
            for pin in nl.nets[j].pins:
                if pin.cell == cell:
                    xs.append(slot.x + pin.dx)
                    ys.append(slot.y + pin.dy)
                elif pin.cell not in moving:
                    xs.append(float(placement.x[pin.cell]) + pin.dx)
                    ys.append(float(placement.y[pin.cell]) + pin.dy)
            if len(xs) >= 2:
                total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    def _repack_rows(self, placement: Placement, cells: List[int]) -> None:
        """Re-space each affected row's window cells to remove overlap.

        Cells keep their assigned order; within each row the group is packed
        from its original left edge.
        """
        nl = placement.netlist
        by_row: Dict[float, List[int]] = {}
        for i in cells:
            by_row.setdefault(round(float(placement.y[i]), 6), []).append(i)
        for row_cells in by_row.values():
            row_cells.sort(key=lambda i: placement.x[i])
            left = min(
                placement.x[i] - nl.widths[i] / 2.0 for i in row_cells
            )
            cursor = left
            for i in row_cells:
                placement.x[i] = cursor + nl.widths[i] / 2.0
                cursor += nl.widths[i]

    def _window_legal(self, placement: Placement, cells: List[int]) -> bool:
        """No overlap with anything and inside the region/obstacle-free."""
        nl = placement.netlist
        b = self.region.bounds
        rects = {i: placement.rect_of(i) for i in cells}
        for i, r in rects.items():
            if not b.contains_rect(r.expanded(-1e-9)):
                return False
            for obs in self.obstacles:
                if r.overlaps(obs):
                    return False
        # Against each other and against same-row neighbors outside the set.
        # Cells in different rows cannot overlap (row-height cells at row
        # centers), so only the rows the window touches need checking.
        cell_set = set(cells)
        items = list(rects.items())
        for a in range(len(items)):
            for c in range(a + 1, len(items)):
                if items[a][1].overlaps(items[c][1]):
                    return False
        rows = getattr(self, "_current_rows", None) or self._rows_of(placement)
        for i, r in rects.items():
            key = round(float(placement.y[i]), 6)
            for k in rows.get(key, ()):
                if k in cell_set:
                    continue
                if r.overlaps(placement.rect_of(k)):
                    return False
        return True

    # Exact HPWL of the nets a window touches, for its accept test.
    def _affected_nets(self, placement: Placement, cells: Sequence[int]) -> List[int]:
        nets: Set[int] = set()
        for i in cells:
            nets.update(placement.netlist.nets_of_cell(i))
        return sorted(nets)

    def _nets_hpwl(self, placement: Placement, nets: Sequence[int]) -> float:
        total = 0.0
        for j in nets:
            px, py = placement.pin_positions(j)
            total += (px.max() - px.min()) + (py.max() - py.min())
        return total

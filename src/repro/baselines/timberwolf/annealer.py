"""TimberWolf-style simulated-annealing row placer [2, 18, 19, 20].

Classic row-based annealing: cells live in standard-cell rows at continuous
x positions; moves displace a cell to a random row/position inside a
shrinking range-limiter window or swap two cells; the cost is

    cost = wirelength (weighted HPWL)
         + lambda_overlap * total pairwise x-overlap within rows
         + lambda_row * total deviation of row fill from the average

with Metropolis acceptance on a geometric cooling schedule.  The optional
``net_weights`` make it the timing-driven variant of [20].

All cost deltas are exact and incremental (only the nets and row neighbors
touched by a move are re-evaluated), which is what makes a Python
implementation usable for benchmark-scale circuits.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...evaluation.wirelength import hpwl_meters
from ...geometry import PlacementRegion
from ...netlist import CellKind, Netlist, Placement


@dataclass
class TimberWolfConfig:
    moves_per_cell: int = 8  # moves attempted per cell per temperature
    cooling: float = 0.92
    initial_acceptance: float = 0.85  # sets T0 from the uphill-delta scale
    min_temperature_ratio: float = 1e-4
    max_stages: int = 120
    lambda_overlap: float = 1.0  # per unit overlap length * row height
    lambda_row: float = 0.5
    swap_fraction: float = 0.5  # fraction of moves that are swaps
    seed: int = 42
    verbose: bool = False


@dataclass
class TimberWolfResult:
    placement: Placement
    stages: int
    moves: int
    accepted: int
    initial_cost: float
    final_cost: float
    seconds: float

    @property
    def hpwl_m(self) -> float:
        return hpwl_meters(self.placement)


class _State:
    """Mutable annealing state: row membership and x positions."""

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        placement: Placement,
        weights: np.ndarray,
    ):
        self.nl = netlist
        self.region = region
        self.rows = region.rows
        self.num_rows = len(self.rows)
        self.weights = weights
        movable = netlist.movable_indices
        self.cells = movable[~netlist.kind_mask(CellKind.BLOCK)[movable]].tolist()
        self.x = placement.x.copy()
        self.y = placement.y.copy()
        self.row_of: Dict[int, int] = {}
        self.row_width: List[float] = [0.0] * self.num_rows
        # Assign each cell to the nearest row initially.
        centers = np.array([r.center_y for r in self.rows])
        for i in self.cells:
            r = int(np.argmin(np.abs(centers - self.y[i])))
            self.row_of[i] = r
            self.y[i] = self.rows[r].center_y
            self.row_width[r] += float(netlist.widths[i])
        self.target_row_width = sum(self.row_width) / max(self.num_rows, 1)
        # Per-net pin lists (cell index, dx, dy) for incremental HPWL.
        ptr = netlist.net_ptr.tolist()
        pins = list(zip(
            netlist.pin_cell.tolist(), netlist.pin_dx.tolist(),
            netlist.pin_dy.tolist(),
        ))
        self.net_pins: List[List[Tuple[int, float, float]]] = [
            pins[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])
        ]
        self.cell_nets = [netlist.nets_of_cell(i) for i in range(netlist.num_cells)]
        # Sorted per-row cell lists for overlap queries.
        self.row_cells: List[List[int]] = [[] for _ in range(self.num_rows)]
        for i in self.cells:
            self.row_cells[self.row_of[i]].append(i)
        for lst in self.row_cells:
            lst.sort(key=lambda i: self.x[i])

    # -- cost pieces ---------------------------------------------------
    def net_hpwl(self, j: int) -> float:
        pins = self.net_pins[j]
        first = pins[0]
        xlo = xhi = self.x[first[0]] + first[1]
        ylo = yhi = self.y[first[0]] + first[2]
        for cell, dx, dy in pins[1:]:
            px = self.x[cell] + dx
            py = self.y[cell] + dy
            if px < xlo:
                xlo = px
            elif px > xhi:
                xhi = px
            if py < ylo:
                ylo = py
            elif py > yhi:
                yhi = py
        return float(self.weights[j]) * ((xhi - xlo) + (yhi - ylo))

    def nets_cost(self, nets: Sequence[int]) -> float:
        return sum(self.net_hpwl(j) for j in nets)

    def cell_overlap(self, i: int) -> float:
        """Total x-overlap length of cell *i* with its row neighbors."""
        r = self.row_of[i]
        row = self.row_cells[r]
        w = self.nl.widths
        xlo_i = self.x[i] - w[i] / 2.0
        xhi_i = self.x[i] + w[i] / 2.0
        total = 0.0
        for k in row:
            if k == i:
                continue
            lo = max(xlo_i, self.x[k] - w[k] / 2.0)
            hi = min(xhi_i, self.x[k] + w[k] / 2.0)
            if hi > lo:
                total += hi - lo
        return total

    def total_cost(self) -> float:
        wire = self.nets_cost(range(self.nl.num_nets))
        overlap = sum(self.cell_overlap(i) for i in self.cells) / 2.0
        row_dev = sum(
            abs(wd - self.target_row_width) for wd in self.row_width
        )
        return wire, overlap, row_dev

    # -- mutations -----------------------------------------------------
    def remove_from_row(self, i: int) -> None:
        r = self.row_of[i]
        self.row_cells[r].remove(i)
        self.row_width[r] -= float(self.nl.widths[i])

    def insert_into_row(self, i: int, r: int, x: float) -> None:
        self.row_of[i] = r
        self.x[i] = x
        self.y[i] = self.rows[r].center_y
        lst = self.row_cells[r]
        lo, hi = 0, len(lst)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.x[lst[mid]] < x:
                lo = mid + 1
            else:
                hi = mid
        lst.insert(lo, i)
        self.row_width[r] += float(self.nl.widths[i])


class TimberWolfPlacer:
    """Simulated-annealing standard-cell placer."""

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        config: Optional[TimberWolfConfig] = None,
        net_weights: Optional[np.ndarray] = None,
    ):
        if not region.rows:
            raise ValueError("TimberWolf needs a row-based region")
        self.netlist = netlist
        self.region = region
        self.config = config or TimberWolfConfig()
        self.net_weights = (
            np.ones(netlist.num_nets) if net_weights is None else np.asarray(net_weights)
        )

    # ------------------------------------------------------------------
    def place(self, initial: Optional[Placement] = None) -> TimberWolfResult:
        cfg = self.config
        nl = self.netlist
        t0 = time.perf_counter()
        rng = random.Random(cfg.seed)
        np_rng = np.random.default_rng(cfg.seed)
        start = initial if initial is not None else Placement.random(
            nl, self.region, np_rng
        )
        state = _State(nl, self.region, start, self.net_weights)
        cells = state.cells
        if not cells:
            raise ValueError("no standard cells to anneal")
        lam_ov = cfg.lambda_overlap
        lam_row = cfg.lambda_row

        temperature = self._initial_temperature(state, rng)
        t_min = temperature * cfg.min_temperature_ratio
        bounds = self.region.bounds
        window_w = bounds.width
        window_rows = state.num_rows

        moves = accepted = 0
        wire0, ov0, row0 = state.total_cost()
        initial_cost = wire0 + lam_ov * ov0 + lam_row * row0
        stages = 0
        moves_per_stage = cfg.moves_per_cell * len(cells)
        for _stage in range(cfg.max_stages):
            stages += 1
            stage_accepted = 0
            for _ in range(moves_per_stage):
                moves += 1
                if rng.random() < cfg.swap_fraction and len(cells) > 1:
                    delta, rollback = self._propose_swap(state, rng, lam_ov)
                else:
                    delta, rollback = self._propose_displace(
                        state, rng, lam_ov, lam_row, window_w, window_rows
                    )
                if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                    accepted += 1
                    stage_accepted += 1
                else:
                    rollback()
            if cfg.verbose:
                print(
                    f"[timberwolf {nl.name}] T={temperature:.3g} "
                    f"acc={stage_accepted / moves_per_stage:.2f}"
                )
            temperature *= cfg.cooling
            # Range limiter: shrink the displacement window with temperature.
            ratio = max(stage_accepted / moves_per_stage, 0.02)
            window_w = max(bounds.width * ratio, 4.0 * float(nl.widths.mean()))
            window_rows = max(1, int(round(state.num_rows * ratio)))
            if temperature < t_min or (stage_accepted == 0 and _stage > 5):
                break

        out = start.copy()
        out.x[:] = state.x
        out.y[:] = state.y
        out.reset_fixed()
        wire1, ov1, row1 = state.total_cost()
        return TimberWolfResult(
            placement=out,
            stages=stages,
            moves=moves,
            accepted=accepted,
            initial_cost=initial_cost,
            final_cost=wire1 + lam_ov * ov1 + lam_row * row1,
            seconds=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------
    def _initial_temperature(self, state: _State, rng: random.Random) -> float:
        """T0 from the average uphill delta of random probe moves."""
        cfg = self.config
        deltas = []
        for _ in range(min(200, 4 * len(state.cells))):
            delta, _commit = self._propose_displace(
                state,
                rng,
                cfg.lambda_overlap,
                cfg.lambda_row,
                self.region.bounds.width,
                state.num_rows,
            )
            if delta > 0:
                deltas.append(delta)
        if not deltas:
            return 1.0
        avg_up = sum(deltas) / len(deltas)
        return -avg_up / math.log(cfg.initial_acceptance)

    # ------------------------------------------------------------------
    def _propose_displace(
        self,
        state: _State,
        rng: random.Random,
        lam_ov: float,
        lam_row: float,
        window_w: float,
        window_rows: int,
    ):
        nl = self.netlist
        i = state.cells[rng.randrange(len(state.cells))]
        old_r = state.row_of[i]
        old_x = state.x[i]
        new_r = min(
            max(old_r + rng.randint(-window_rows, window_rows), 0),
            state.num_rows - 1,
        )
        half_w = float(nl.widths[i]) / 2.0
        b = self.region.bounds
        new_x = min(
            max(old_x + rng.uniform(-window_w, window_w), b.xlo + half_w),
            b.xhi - half_w,
        )
        nets = state.cell_nets[i]
        before = (
            state.nets_cost(nets)
            + lam_ov * state.cell_overlap(i)
            + lam_row
            * (
                abs(state.row_width[old_r] - state.target_row_width)
                + (
                    abs(state.row_width[new_r] - state.target_row_width)
                    if new_r != old_r
                    else 0.0
                )
            )
        )
        state.remove_from_row(i)
        state.insert_into_row(i, new_r, new_x)
        after = (
            state.nets_cost(nets)
            + lam_ov * state.cell_overlap(i)
            + lam_row
            * (
                abs(state.row_width[old_r] - state.target_row_width)
                + (
                    abs(state.row_width[new_r] - state.target_row_width)
                    if new_r != old_r
                    else 0.0
                )
            )
        )
        delta = after - before

        def rollback() -> None:
            state.remove_from_row(i)
            state.insert_into_row(i, old_r, old_x)

        return delta, rollback

    def _propose_swap(self, state: _State, rng: random.Random, lam_ov: float):
        """Swap the (row, x) slots of two random cells.

        Row fill changes only by the width difference, which the |dev| terms
        track; to keep the delta exact we include both rows' deviations.
        """
        cells = state.cells
        i = cells[rng.randrange(len(cells))]
        j = cells[rng.randrange(len(cells))]
        if i == j:
            return 0.0, lambda: None
        lam_row = self.config.lambda_row
        ri, rj = state.row_of[i], state.row_of[j]
        xi, xj = state.x[i], state.x[j]
        nets = sorted(set(state.cell_nets[i]) | set(state.cell_nets[j]))
        before = (
            state.nets_cost(nets)
            + lam_ov * (state.cell_overlap(i) + state.cell_overlap(j))
            + lam_row
            * (
                abs(state.row_width[ri] - state.target_row_width)
                + (
                    abs(state.row_width[rj] - state.target_row_width)
                    if rj != ri
                    else 0.0
                )
            )
        )
        state.remove_from_row(i)
        state.remove_from_row(j)
        state.insert_into_row(i, rj, xj)
        state.insert_into_row(j, ri, xi)
        after = (
            state.nets_cost(nets)
            + lam_ov * (state.cell_overlap(i) + state.cell_overlap(j))
            + lam_row
            * (
                abs(state.row_width[ri] - state.target_row_width)
                + (
                    abs(state.row_width[rj] - state.target_row_width)
                    if rj != ri
                    else 0.0
                )
            )
        )
        delta = after - before

        def rollback() -> None:
            state.remove_from_row(i)
            state.remove_from_row(j)
            state.insert_into_row(i, ri, xi)
            state.insert_into_row(j, rj, xj)

        return delta, rollback

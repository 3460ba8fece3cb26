"""Vectorized detailed-placement improvement: the production polish.

Greedy, legality-preserving local moves on a legal row placement, in the
spirit of the Domino final placer [17]: adjacent-pair swaps, cross-row
swaps between x-aligned cells of nearby rows, and optimal median slides
(each cell to the 1-D HPWL optimum of its nets, clamped into its free
span).  Moves are priced in batches with
:class:`~repro.legalize.extents.MoveEvaluator`, from per-net extremes it
keeps up to date on the live coordinates, instead of per-move Python net
walks.  Each pass:

1. generates every candidate move of one family across all rows at once
   (from a freshly sorted row view, so spans are never stale),
2. computes the *exact* HPWL delta of every candidate in a handful of
   numpy passes,
3. accepts improving moves best-first over a few pricing rounds: a move is
   taken only if none of the cells in its row window (the cells whose
   positions its legality check read) have moved, and none of its nets
   were touched by an earlier acceptance in the same round — net-blocked
   candidates stay alive and are re-priced against the updated placement
   in the next round (only their pairs on the nets that round changed),
   so one candidate generation approaches the move yield of a fully
   sequential greedy sweep at batch cost.

The dirty-net filter makes every applied delta exact and the frozen-window
rule makes every accepted move legal, so each pass monotonically decreases
HPWL.  After the first pass, candidate generation is restricted to a
worklist of cells near the previous pass's accepted moves; passes repeat
until no move is accepted or ``max_passes`` is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..evaluation.wirelength import net_hpwl
from ..geometry import PlacementRegion, Rect
from ..netlist import CellKind, Placement
from .extents import MoveEvaluator

_EPS = 1e-9


@dataclass
class ImprovementResult:
    placement: Placement
    passes: int
    moves_accepted: int
    hpwl_before_um: float
    hpwl_after_um: float

    @property
    def improvement_percent(self) -> float:
        if self.hpwl_before_um == 0:
            return 0.0
        return 100.0 * (self.hpwl_before_um - self.hpwl_after_um) / self.hpwl_before_um


class _RowView:
    """Movable standard cells grouped by row, each row sorted by x.

    Also carries, per listed cell, its free-span bounds (neighbor edges or
    region walls) and its left/right neighbors (-1 at row ends).
    """

    def __init__(self, placement: Placement, region: PlacementRegion,
                 std: np.ndarray):
        ys = np.round(placement.y[std], 6) if std.size else np.zeros(0)
        order = (
            np.lexsort((placement.x[std], ys)) if std.size
            else np.zeros(0, np.int64)
        )
        self.cells = std[order]
        keys = ys[order]
        n = len(self.cells)
        if n:
            breaks = np.flatnonzero(keys[1:] != keys[:-1]) + 1
            self.row_start = np.concatenate(([0], breaks, [n]))
        else:
            self.row_start = np.array([0, 0], dtype=np.int64)

        nl = placement.netlist
        x = placement.x[self.cells]
        half = nl.widths[self.cells] / 2.0
        prev = np.empty(n, dtype=np.int64)
        nxt = np.empty(n, dtype=np.int64)
        left = np.empty(n)
        right = np.empty(n)
        bounds = region.bounds
        if n:
            prev[1:] = self.cells[:-1]
            nxt[:-1] = self.cells[1:]
            left[1:] = x[:-1] + half[:-1]
            right[:-1] = x[1:] - half[1:]
        starts = self.row_start[:-1]
        ends = self.row_start[1:] - 1
        first = starts[starts < n]
        last = ends[ends >= 0]
        prev[first] = -1
        nxt[last] = -1
        left[first] = bounds.xlo
        right[last] = bounds.xhi
        self.prev = prev
        self.nxt = nxt
        self.left = left
        self.right = right

    @property
    def num_rows(self) -> int:
        return len(self.row_start) - 1


class VectorImprover:
    """Batched greedy detailed placement with exact HPWL deltas."""

    def __init__(
        self,
        region: PlacementRegion,
        max_passes: int = 8,
        obstacles: Tuple[Rect, ...] = (),
        cross_row_passes: int = 3,
        min_gain: float = 0.0,
    ):
        self.region = region
        self.max_passes = max_passes
        self.obstacles = list(obstacles)
        # Cross-row swaps have by far the worst accepted-moves-per-ms of
        # the three families once the placement settles; run them only in
        # the first few passes.
        self.cross_row_passes = cross_row_passes
        # Early exit: stop when a pass improves HPWL by less than
        # ``min_gain`` (relative to the pre-improvement HPWL).  The late
        # passes chase a long tail of tiny moves; at 100k+ cells they cost
        # seconds for basis-point gains.  0.0 keeps every pass.
        self.min_gain = min_gain

    # ------------------------------------------------------------------
    def improve(self, placement: Placement) -> ImprovementResult:
        nl = placement.netlist
        out = placement.copy()
        ev = MoveEvaluator(nl, out.x, out.y)
        movable = nl.movable_indices
        std = movable[~nl.kind_mask(CellKind.BLOCK)[movable]]
        hpwl_before = float(net_hpwl(out).sum())
        accepted = 0
        passes_run = 0
        # Worklists: everything is eligible in pass 1.  Afterwards swap
        # candidates are re-priced only when their window saw a move last
        # pass; slides also re-price when a net endpoint moved (their
        # optimal target shifts even if the row around them did not).
        swap_eligible: Optional[np.ndarray] = None
        slide_eligible: Optional[np.ndarray] = None
        # Row views are rebuilt lazily: only when the previous family (or
        # pass) actually moved something, since stale sorted order would
        # break the fit checks but an untouched placement cannot go stale.
        view: Optional[_RowView] = None
        view_stale = True
        for _ in range(self.max_passes):
            passes_run += 1
            moved = np.zeros(nl.num_cells, dtype=bool)
            pass_accepted = 0
            pass_gain = 0.0
            if view_stale or view is None:
                view = _RowView(out, self.region, std)
            n, g = self._adjacent_swaps(out, ev, view, swap_eligible, moved)
            if n:
                view = _RowView(out, self.region, std)
            pass_accepted += n
            pass_gain += g
            if passes_run <= self.cross_row_passes:
                n, g = self._cross_row_swaps(
                    out, ev, view, swap_eligible, moved
                )
                if n:
                    view = _RowView(out, self.region, std)
                pass_accepted += n
                pass_gain += g
            n, g = self._slide_to_median(out, ev, view, slide_eligible, moved)
            view_stale = n > 0
            pass_accepted += n
            pass_gain += g
            accepted += pass_accepted
            if pass_accepted == 0:
                break
            # Relative early exit: the late passes chase a long tail of
            # tiny moves.  When a whole pass recovers less than
            # ``min_gain`` of the starting HPWL, stop here.
            if (
                self.min_gain > 0.0
                and pass_gain < self.min_gain * max(hpwl_before, 1.0)
            ):
                break
            swap_eligible = moved
            slide_eligible = self._next_worklist(ev, nl, moved)
        hpwl_after = float(net_hpwl(out).sum())
        return ImprovementResult(
            placement=out,
            passes=passes_run,
            moves_accepted=accepted,
            hpwl_before_um=hpwl_before,
            hpwl_after_um=hpwl_after,
        )

    @staticmethod
    def _next_worklist(
        ev: MoveEvaluator, nl, moved: np.ndarray
    ) -> np.ndarray:
        """Cells near last pass's moves: moved or sharing a moved cell's net."""
        if not moved.any():
            return moved
        moved_nets = np.zeros(max(nl.num_nets, 1), dtype=bool)
        moved_nets[ev.inc_net[moved[ev.inc_cell]]] = True
        hot = np.bincount(
            ev.inc_cell,
            weights=moved_nets[ev.inc_net].astype(np.float64),
            minlength=nl.num_cells,
        ) > 0
        return hot | moved

    @staticmethod
    def _window_eligible(
        windows: np.ndarray, eligible: Optional[np.ndarray]
    ) -> np.ndarray:
        """Mask of candidates with any (non-padding) window cell eligible."""
        if eligible is None:
            return np.ones(len(windows), dtype=bool)
        # The -1 padding reads the appended False.
        return np.append(eligible, False)[windows.T].any(axis=0)

    # ------------------------------------------------------------------
    def _obstacle_ok(
        self, new_x: np.ndarray, new_y: np.ndarray, widths: np.ndarray,
        heights: np.ndarray,
    ) -> np.ndarray:
        """Mask of candidates whose new rect avoids every obstacle."""
        ok = np.ones(len(new_x), dtype=bool)
        for obs in self.obstacles:
            hit = (
                (new_x - widths / 2.0 < obs.xhi - _EPS)
                & (new_x + widths / 2.0 > obs.xlo + _EPS)
                & (new_y - heights / 2.0 < obs.yhi - _EPS)
                & (new_y + heights / 2.0 > obs.ylo + _EPS)
            )
            ok &= ~hit
        return ok

    def _accept_rounds(
        self,
        out: Placement,
        ev: MoveEvaluator,
        moved: np.ndarray,
        windows: np.ndarray,
        cell_a: np.ndarray,
        new_ax: np.ndarray,
        new_ay: np.ndarray,
        cell_b: np.ndarray = None,
        new_bx: np.ndarray = None,
        new_by: np.ndarray = None,
        max_rounds: int = 6,
        x_only: bool = False,
    ) -> Tuple[int, float]:
        """Accept improving moves best-first over several pricing rounds.

        Returns ``(moves_taken, hpwl_gain_um)`` — the gain is the exact
        summed improvement of the applied deltas (positive)."""
        nl = out.netlist
        # One spare byte, never locked: a window's -1 padding indexes it.
        locked = bytearray(nl.num_cells + 1)
        num_nets = max(nl.num_nets, 1)
        batch = ev.moves(
            cell_a, new_ax, new_ay, cell_b, new_bx, new_by, x_only=x_only
        )
        # Pure-Python structures: the accept loop touches a few cells and
        # nets per candidate, where list indexing beats numpy fancy
        # indexing by an order of magnitude.
        win_list = windows.tolist()
        pair_net = batch.pair_net.tolist()
        move_ptr = batch.move_ptr.tolist()
        two = cell_b is not None
        alive = np.arange(len(cell_a))
        dirty_mask = None
        taken = 0
        gain = 0.0
        for _ in range(max_rounds):
            if not alive.size:
                break
            if dirty_mask is not None:
                # Only pairs on nets the last round changed can price
                # differently now.
                keep = np.zeros(len(cell_a), dtype=bool)
                keep[alive] = True
                batch.price(np.flatnonzero(
                    keep[batch.pair_move] & dirty_mask[batch.pair_net]
                ))
            deltas = batch.deltas()[alive]
            cand = np.flatnonzero(deltas < -_EPS)
            if not cand.size:
                break
            order = cand[np.argsort(deltas[cand], kind="stable")]
            alive_list = alive.tolist()
            delta_list = deltas.tolist()
            dirty = bytearray(num_nets)
            retry = []
            accepted = []
            for mi in order.tolist():
                m = alive_list[mi]
                window = win_list[m]
                for c in window:
                    if locked[c]:
                        break
                else:
                    nets = pair_net[move_ptr[m] : move_ptr[m + 1]]
                    for j in nets:
                        if dirty[j]:
                            retry.append(m)
                            break
                    else:
                        for c in window:
                            locked[c] = 1
                        locked[-1] = 0
                        for j in nets:
                            dirty[j] = 1
                        accepted.append(m)
                        gain -= delta_list[mi]
            if not accepted:
                break
            taken += len(accepted)
            # Accepted moves have disjoint windows, so they apply at once.
            acc = np.array(accepted, dtype=np.int64)
            out.x[cell_a[acc]] = new_ax[acc]
            moved[cell_a[acc]] = True
            if not x_only:
                out.y[cell_a[acc]] = new_ay[acc]
            if two:
                out.x[cell_b[acc]] = new_bx[acc]
                moved[cell_b[acc]] = True
                if not x_only:
                    out.y[cell_b[acc]] = new_by[acc]
            dirty_mask = np.frombuffer(dirty, dtype=bool)[: nl.num_nets]
            ev.refresh(np.flatnonzero(dirty_mask), y=not x_only)
            alive = np.array(retry, dtype=np.int64)
        if alive.size:
            # Still-improving but net-blocked candidates: seed the next
            # pass's worklist so they are re-priced instead of lost.
            moved[cell_a[alive]] = True
            if two:
                moved[cell_b[alive]] = True
        return taken, gain

    # ------------------------------------------------------------------
    def _adjacent_swaps(
        self, out: Placement, ev: MoveEvaluator, view: _RowView,
        eligible: Optional[np.ndarray], moved: np.ndarray,
    ) -> Tuple[int, float]:
        nl = out.netlist
        same_row = view.nxt >= 0
        a = view.cells[same_row]
        if not a.size:
            return 0, 0.0
        b = view.nxt[same_row]
        # The pair's combined footprint is unchanged, so only the two
        # swapped cells need locking.
        windows = np.stack((a, b), axis=1)
        keep = self._window_eligible(windows, eligible)
        a, b, windows = a[keep], b[keep], windows[keep]
        if not a.size:
            return 0, 0.0
        wa = nl.widths[a]
        wb = nl.widths[b]
        left_edge = out.x[a] - wa / 2.0
        new_bx = left_edge + wb / 2.0
        new_ax = left_edge + wb + wa / 2.0
        new_ay = out.y[a]
        new_by = out.y[b]
        if self.obstacles:
            ok = self._obstacle_ok(
                new_ax, new_ay, wa, nl.heights[a]
            ) & self._obstacle_ok(new_bx, new_by, wb, nl.heights[b])
            a, b, windows = a[ok], b[ok], windows[ok]
            new_ax, new_ay = new_ax[ok], new_ay[ok]
            new_bx, new_by = new_bx[ok], new_by[ok]
            if not a.size:
                return 0, 0.0
        return self._accept_rounds(
            out, ev, moved, windows, a, new_ax, new_ay, b, new_bx, new_by,
            x_only=True,
        )

    # ------------------------------------------------------------------
    def _cross_row_swaps(
        self, out: Placement, ev: MoveEvaluator, view: _RowView,
        eligible: Optional[np.ndarray], moved: np.ndarray,
    ) -> Tuple[int, float]:
        nl = out.netlist
        # Each cell of a row below the top one pairs with the two cells of
        # the next row that bracket its x.  Complex keys (row, x) compare
        # lexicographically, so one search finds every bracket.
        if view.num_rows < 2:
            return 0, 0.0
        row = np.repeat(np.arange(view.num_rows), np.diff(view.row_start))
        keys = np.empty(len(view.cells), dtype=np.complex128)
        keys.real = row
        keys.imag = out.x[view.cells]
        lower = np.arange(view.row_start[-2])
        k = np.searchsorted(keys, keys[lower] + 1.0)
        pa = np.repeat(lower, 2)
        pb = np.stack((k - 1, k), axis=1).ravel()
        up = np.repeat(row[lower] + 1, 2)
        valid = (pb >= view.row_start[up]) & (pb < view.row_start[up + 1])
        pa, pb = pa[valid], pb[valid]
        if not pa.size:
            return 0, 0.0
        a = view.cells[pa]
        b = view.cells[pb]
        # Window: both cells plus their four row neighbors (their spans
        # are read by the fit check and their widths change at the slot).
        windows = np.stack(
            (a, b, view.prev[pa], view.nxt[pa], view.prev[pb], view.nxt[pb]),
            axis=1,
        )
        keep = self._window_eligible(windows, eligible)
        pa, pb, windows = pa[keep], pb[keep], windows[keep]
        if not pa.size:
            return 0, 0.0
        a, b = a[keep], b[keep]
        # Fit checks: each candidate at the occupant's center in its span.
        span_a = view.right[pa] - view.left[pa]
        span_b = view.right[pb] - view.left[pb]
        wa = nl.widths[a]
        wb = nl.widths[b]
        xa = out.x[a]
        xb = out.x[b]
        fits = (
            (wb <= span_a + _EPS)
            & (xa - wb / 2.0 >= view.left[pa] - _EPS)
            & (xa + wb / 2.0 <= view.right[pa] + _EPS)
            & (wa <= span_b + _EPS)
            & (xb - wa / 2.0 >= view.left[pb] - _EPS)
            & (xb + wa / 2.0 <= view.right[pb] + _EPS)
        )
        a, b, windows = a[fits], b[fits], windows[fits]
        if not a.size:
            return 0, 0.0
        new_ax, new_ay = out.x[b], out.y[b]
        new_bx, new_by = out.x[a], out.y[a]
        if self.obstacles:
            ok = self._obstacle_ok(
                new_ax, new_ay, nl.widths[a], nl.heights[a]
            ) & self._obstacle_ok(new_bx, new_by, nl.widths[b], nl.heights[b])
            a, b, windows = a[ok], b[ok], windows[ok]
            new_ax, new_ay = new_ax[ok], new_ay[ok]
            new_bx, new_by = new_bx[ok], new_by[ok]
            if not a.size:
                return 0, 0.0
        return self._accept_rounds(
            out, ev, moved, windows, a, new_ax, new_ay, b, new_bx, new_by
        )

    # ------------------------------------------------------------------
    def _slide_to_median(
        self, out: Placement, ev: MoveEvaluator, view: _RowView,
        eligible: Optional[np.ndarray], moved: np.ndarray,
    ) -> Tuple[int, float]:
        nl = out.netlist
        if not view.cells.size:
            return 0, 0.0
        # Window: the cell and both neighbors (their spans read this x).
        # Filter by worklist *before* pricing so median targets are only
        # computed for the (usually few) still-hot cells.
        windows = np.stack((view.cells, view.prev, view.nxt), axis=1)
        keep = self._window_eligible(windows, eligible)
        pos = np.flatnonzero(keep)
        if not pos.size:
            return 0, 0.0
        cells = view.cells[pos]
        windows = windows[keep]
        t = self._median_targets(ev, cells)
        have = np.isfinite(t)
        pos, cells, t, windows = pos[have], cells[have], t[have], windows[have]
        if not cells.size:
            return 0, 0.0
        half = nl.widths[cells] / 2.0
        new_x = np.minimum(
            np.maximum(t, view.left[pos] + half), view.right[pos] - half
        )
        far = np.abs(new_x - out.x[cells]) >= _EPS
        cells, new_x, windows = cells[far], new_x[far], windows[far]
        if not cells.size:
            return 0, 0.0
        new_y = out.y[cells]
        if self.obstacles:
            ok = self._obstacle_ok(
                new_x, new_y, nl.widths[cells], nl.heights[cells]
            )
            cells, windows = cells[ok], windows[ok]
            new_x, new_y = new_x[ok], new_y[ok]
            if not cells.size:
                return 0, 0.0
        return self._accept_rounds(
            out, ev, moved, windows, cells, new_x, new_y, x_only=True
        )

    @staticmethod
    def _median_targets(ev: MoveEvaluator, cells: np.ndarray) -> np.ndarray:
        """1-D optimal x per listed cell: median of exclusive net-extent
        endpoints.

        NaN where a cell has no nets with other cells' pins.
        """
        excl_min, excl_max = ev.exclusive_x(cells)
        fin = np.isfinite(excl_min) & np.isfinite(excl_max)
        cnt = ev.cell_ptr[cells + 1] - ev.cell_ptr[cells]
        n = len(cells)
        k = int(cnt.max())
        # One row per cell: its exclusive minima, then its maxima, with
        # +inf for nets without other cells and for padding, so that a
        # row sort puts the cell's 2 * n_finite endpoints first.
        row = np.repeat(np.arange(n), cnt)
        at = row * (2 * k) + np.arange(len(row)) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        pts = np.full(n * 2 * k, np.inf)
        pts[at] = np.where(fin, excl_min, np.inf)
        pts[at + k] = np.where(fin, excl_max, np.inf)
        pts = pts.reshape(n, 2 * k)
        pts.sort(axis=1)
        # Always an even count of endpoints: the median is the mean of the
        # middle two.
        mid = np.bincount(row, weights=fin, minlength=n).astype(np.int64)
        r = np.flatnonzero(mid)
        targets = np.full(n, np.nan)
        targets[r] = 0.5 * (pts[r, mid[r] - 1] + pts[r, mid[r]])
        return targets

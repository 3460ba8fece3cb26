"""Reference oracles the production engines are tested against.

Each oracle is the literal, slow form of one production stage, kept only so
tests can pin the fast engine to it:

* :func:`force_field_direct` — the O(N²) double sum of Eq. 9 over the
  density bins.  :class:`~repro.core.poisson.PoissonSolver` (zero-padded
  FFT convolution) must match it to round-off
  (``tests/test_core_poisson.py``).
* :class:`AbacusLegalizer` — the per-cluster scalar Abacus: cells in order
  of their global x, each tentatively appended to candidate segments near
  its global y, the segment with the lowest quadratic displacement cost
  winning, and the classic cluster-collapsing recurrence placing cells
  within a segment.  :class:`~repro.legalize.vector.VectorAbacusLegalizer`
  must reproduce its positions bit for bit, with and without obstacles
  (``tests/test_legalize_vector.py``).
* :class:`PinGatheringEvaluator` — HPWL deltas and exclusive extents by
  gathering every pin of every affected net and reducing per (move, net).
  :class:`~repro.legalize.extents.MoveEvaluator` (cached net extremes)
  must give the same floats bit for bit (``tests/test_legalize_vector.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.density import DensityResult
from ..core.poisson import ForceField
from ..geometry import PlacementRegion, Rect
from ..legalize.extents import _segment_gather
from ..legalize.segments import Segment, build_segments
from ..legalize.vector import LegalizationResult
from ..netlist import CellKind, Placement

_TWO_PI = 2.0 * np.pi


def force_field_direct(density: DensityResult) -> ForceField:
    """O(N²) literal evaluation of Eq. 9 — reference implementation."""
    grid = density.grid
    xc = grid.x_centers()
    yc = grid.y_centers()
    px, py = np.meshgrid(xc, yc)
    points = np.stack([px.ravel(), py.ravel()], axis=1)
    masses = density.density.ravel()
    fx = np.zeros(len(points))
    fy = np.zeros(len(points))
    for src_idx in range(len(points)):
        m = masses[src_idx]
        if m == 0.0:
            continue
        dx = points[:, 0] - points[src_idx, 0]
        dy = points[:, 1] - points[src_idx, 1]
        r2 = dx * dx + dy * dy
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(r2 > 0.0, 1.0 / r2, 0.0)
        fx += m * dx * inv
        fy += m * dy * inv
    shape = grid.shape
    return ForceField(
        grid=grid,
        fx=(fx / _TWO_PI).reshape(shape),
        fy=(fy / _TWO_PI).reshape(shape),
    )


# ----------------------------------------------------------------------
# Scalar Abacus legalization
# ----------------------------------------------------------------------
_INFEASIBLE = float("inf")


@dataclass
class _Cluster:
    """A maximal group of touching cells placed as one rigid block."""

    x: float  # left edge
    e: float  # total weight
    q: float  # sum of e_i * (x_i_desired - offset_i)
    w: float  # total width
    cells: List[int] = field(default_factory=list)
    offsets: List[float] = field(default_factory=list)  # cell offset in cluster


class _SegmentState:
    """Mutable cluster list of one segment."""

    def __init__(self, segment: Segment):
        self.segment = segment
        self.clusters: List[_Cluster] = []
        self.used = 0.0

    def free(self) -> float:
        return self.segment.width - self.used

    def append_cell(
        self, cell_index: int, width: float, weight: float, x_desired: float
    ) -> None:
        """Abacus PlaceRow step: append a cell and collapse clusters."""
        seg = self.segment
        cluster = _Cluster(
            x=min(max(x_desired, seg.xlo), seg.xhi - width),
            e=weight,
            q=weight * x_desired,
            w=width,
            cells=[cell_index],
            offsets=[0.0],
        )
        self.clusters.append(cluster)
        self._collapse()
        self.used += width

    def _collapse(self) -> None:
        while True:
            c = self.clusters[-1]
            # Optimal position, clamped into the segment.
            c.x = min(max(c.q / c.e, self.segment.xlo), self.segment.xhi - c.w)
            if len(self.clusters) < 2:
                return
            prev = self.clusters[-2]
            if prev.x + prev.w <= c.x + 1e-12:
                return
            # Merge c into prev.
            for cell, off in zip(c.cells, c.offsets):
                prev.cells.append(cell)
                prev.offsets.append(prev.w + off)
            prev.q += c.q - c.e * prev.w
            prev.e += c.e
            prev.w += c.w
            self.clusters.pop()

    def trial_cost(
        self, width: float, weight: float, x_desired: float, y_cost: float
    ) -> float:
        """Cost of appending a cell, without mutating the segment.

        Simulates the collapse on lightweight copies of the tail clusters
        and returns the total *incremental* quadratic displacement cost in x
        for all moved cells plus the given fixed y-cost.
        """
        if width > self.free() + 1e-9:
            return _INFEASIBLE
        seg = self.segment
        # Work on scalar copies: (x, e, q, w) tuples.
        tail: List[Tuple[float, float, float, float]] = [
            (c.x, c.e, c.q, c.w) for c in self.clusters
        ]
        tail.append((0.0, weight, weight * x_desired, width))
        idx = len(tail) - 1
        while True:
            x, e, q, w = tail[idx]
            x = min(max(q / e, seg.xlo), seg.xhi - w)
            tail[idx] = (x, e, q, w)
            if idx == 0:
                break
            px, pe, pq, pw = tail[idx - 1]
            if px + pw <= x + 1e-12:
                break
            tail[idx - 1] = (px, pe + e, pq + q - e * pw, pw + w)
            tail.pop()
            idx -= 1
        # The appended cell ends at the right edge of the final cluster.
        x, e, q, w = tail[idx]
        new_cell_x = x + w - width
        return weight * (new_cell_x - x_desired) ** 2 + y_cost

    def positions(self) -> List[Tuple[int, float]]:
        """(cell_index, left-edge x) for every placed cell."""
        out = []
        for c in self.clusters:
            for cell, off in zip(c.cells, c.offsets):
                out.append((cell, c.x + off))
        return out


class AbacusLegalizer:
    """Row legalizer with obstacle-aware segments."""

    def __init__(
        self,
        region: PlacementRegion,
        obstacles: Sequence[Rect] = (),
        row_search_radius: int = 6,
    ):
        self.region = region
        self.obstacles = list(obstacles)
        self.row_search_radius = row_search_radius
        self.segments = build_segments(region, self.obstacles)
        if not self.segments:
            raise ValueError("no free segments to legalize into")

    def legalize(self, placement: Placement) -> LegalizationResult:
        """Legalize all movable standard cells of the placement.

        Movable blocks are *not* legalized here (the floorplanning flow
        places them first and passes them in as obstacles); their positions
        are preserved.
        """
        nl = placement.netlist
        states = [_SegmentState(seg) for seg in self.segments]
        seg_center_y = np.array([s.center_y for s in self.segments])

        movable = nl.movable_indices
        targets = list(movable[~nl.kind_mask(CellKind.BLOCK)[movable]])
        # Left-to-right sweep over desired x positions.
        targets.sort(key=lambda i: placement.x[i] - nl.widths[i] / 2.0)

        out = placement.copy()
        failed: List[int] = []
        for i in targets:
            width = float(nl.widths[i])
            weight = float(nl.areas[i])
            x_desired = float(placement.x[i] - width / 2.0)
            y_desired = float(placement.y[i])
            order = np.argsort(np.abs(seg_center_y - y_desired), kind="stable")
            best: Optional[Tuple[float, int]] = None
            rows_tried = 0
            last_row_y = None
            for si in order:
                state = states[si]
                row_y = state.segment.center_y
                if last_row_y is None or row_y != last_row_y:
                    rows_tried += 1
                    last_row_y = row_y
                if rows_tried > self.row_search_radius and best is not None:
                    break
                y_cost = weight * (row_y - y_desired) ** 2
                if best is not None and y_cost >= best[0]:
                    continue
                cost = state.trial_cost(width, weight, x_desired, y_cost)
                if cost < (best[0] if best else _INFEASIBLE):
                    best = (cost, int(si))
            if best is None:
                failed.append(i)
                continue
            state = states[best[1]]
            state.append_cell(i, width, weight, x_desired)

        for state in states:
            row_cy = state.segment.center_y
            for cell_index, left_x in state.positions():
                out.x[cell_index] = left_x + nl.widths[cell_index] / 2.0
                out.y[cell_index] = row_cy
        out.reset_fixed()
        moved = out.displacement_from(placement)
        movable = nl.movable_indices
        return LegalizationResult(
            placement=out,
            mean_displacement=float(moved[movable].mean()) if movable.size else 0.0,
            max_displacement=float(moved[movable].max()) if movable.size else 0.0,
            failed_cells=failed,
        )


# ----------------------------------------------------------------------
# Pin-gathering move pricing
# ----------------------------------------------------------------------
class PinGatheringEvaluator:
    """Exact HPWL deltas by re-reading every pin of every affected net."""

    def __init__(self, netlist):
        self.net_start = netlist.net_ptr
        self.pin_cell = netlist.pin_cell
        self.pin_dx = netlist.pin_dx
        self.pin_dy = netlist.pin_dy
        self.degree = netlist.net_degree
        num_nets = len(self.degree)
        net_of_pin = np.repeat(np.arange(num_nets, dtype=np.int64), self.degree)
        # Unique (cell, net) incidence pairs in (cell, net) order -> CSR
        # over cells.
        order = np.lexsort((net_of_pin, self.pin_cell))
        c_sorted = self.pin_cell[order]
        n_sorted = net_of_pin[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (c_sorted[1:] != c_sorted[:-1]) | (n_sorted[1:] != n_sorted[:-1])
        self.inc_cell = c_sorted[first]
        self.inc_net = n_sorted[first]
        self.cell_ptr = np.searchsorted(
            self.inc_cell, np.arange(netlist.num_cells + 1)
        )

    def exclusive_x(
        self, x: np.ndarray, cells: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per (cell, net) incidence of ``cells``: the net's min/max pin x
        over other cells' pins (``+inf``/``-inf`` if none), and the cell."""
        cnt = self.cell_ptr[cells + 1] - self.cell_ptr[cells]
        inc_idx = _segment_gather(self.cell_ptr[cells], cnt)
        inc_cell = self.inc_cell[inc_idx]
        inc_net = self.inc_net[inc_idx]
        if not inc_idx.size:
            return np.zeros(0), np.zeros(0), inc_cell
        nets = np.unique(inc_net)
        deg = self.degree[nets]
        flat = _segment_gather(self.net_start[nets], deg)
        ends = np.cumsum(deg)
        seg = ends - deg
        seg_end = ends - 1
        cell_f = self.pin_cell[flat]
        px = x[cell_f] + self.pin_dx[flat]
        net_key = np.repeat(np.arange(len(nets), dtype=np.int64), deg)
        order = np.lexsort((px, net_key))
        px_s = px[order]
        cell_s = cell_f[order]
        # Smallest pin and the smallest pin of any *other* cell.
        min1 = px_s[seg]
        min1_cell = cell_s[seg]
        other = cell_s != np.repeat(min1_cell, deg)
        min2 = np.minimum.reduceat(np.where(other, px_s, np.inf), seg)
        # Largest pin and the largest pin of any other cell.
        max1 = px_s[seg_end]
        max1_cell = cell_s[seg_end]
        other_hi = cell_s != np.repeat(max1_cell, deg)
        max2 = np.maximum.reduceat(np.where(other_hi, px_s, -np.inf), seg)
        n = np.searchsorted(nets, inc_net)
        excl_min = np.where(inc_cell != min1_cell[n], min1[n], min2[n])
        excl_max = np.where(inc_cell != max1_cell[n], max1[n], max2[n])
        return excl_min, excl_max, inc_cell

    def deltas(
        self,
        x: np.ndarray,
        y: np.ndarray,
        cell_a: np.ndarray,
        new_ax: np.ndarray,
        new_ay: np.ndarray,
        cell_b: np.ndarray = None,
        new_bx: np.ndarray = None,
        new_by: np.ndarray = None,
        x_only: bool = False,
    ) -> np.ndarray:
        """Exact HPWL delta (um) of each candidate move (the arguments of
        :meth:`repro.legalize.extents.MoveEvaluator.deltas`, plus the
        coordinates)."""
        nmoves = len(cell_a)
        if nmoves == 0:
            return np.zeros(0)
        # (move, net) pairs: nets of a (plus nets of b), deduped per move.
        cnt_a = self.cell_ptr[cell_a + 1] - self.cell_ptr[cell_a]
        idx_a = _segment_gather(self.cell_ptr[cell_a], cnt_a)
        move_of = np.repeat(np.arange(nmoves, dtype=np.int64), cnt_a)
        nets = self.inc_net[idx_a]
        num_nets = len(self.degree)
        if cell_b is not None:
            cnt_b = self.cell_ptr[cell_b + 1] - self.cell_ptr[cell_b]
            idx_b = _segment_gather(self.cell_ptr[cell_b], cnt_b)
            move_of = np.concatenate(
                (move_of, np.repeat(np.arange(nmoves, dtype=np.int64), cnt_b))
            )
            nets = np.concatenate((nets, self.inc_net[idx_b]))
            pair_key = np.unique(move_of * num_nets + nets)
            pair_move = pair_key // num_nets
            pair_net = pair_key % num_nets
        else:
            pair_move = move_of
            pair_net = nets
        if not pair_net.size:
            return np.zeros(nmoves)

        # Gather every affected net's pins, one flat segment per pair.
        cnt = self.degree[pair_net]
        flat = _segment_gather(self.net_start[pair_net], cnt)
        fmove = np.repeat(pair_move, cnt)
        fcell = self.pin_cell[flat]
        fdx = self.pin_dx[flat]
        px_old = x[fcell] + fdx
        seg = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        is_a = fcell == cell_a[fmove]
        px = np.where(is_a, new_ax[fmove] + fdx, px_old)
        if cell_b is not None:
            is_b = fcell == cell_b[fmove]
            px = np.where(is_b, new_bx[fmove] + fdx, px)
        blocks = [px_old, px]
        if not x_only:
            fdy = self.pin_dy[flat]
            py_old = y[fcell] + fdy
            py = np.where(is_a, new_ay[fmove] + fdy, py_old)
            if cell_b is not None:
                py = np.where(is_b, new_by[fmove] + fdy, py)
            blocks += [py_old, py]
        ext = [
            np.maximum.reduceat(b, seg) - np.minimum.reduceat(b, seg)
            for b in blocks
        ]
        pair_delta = ext[1] - ext[0]
        if not x_only:
            pair_delta = pair_delta + (ext[3] - ext[2])
        return np.bincount(pair_move, weights=pair_delta, minlength=nmoves)

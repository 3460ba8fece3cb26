"""Vectorized Abacus legalization engine: the production snap.

Abacus is a left-to-right sweep over the cells in order of their desired
left edge; each cell is tentatively appended to candidate segments near its
global y, the segment with the lowest quadratic displacement cost wins, and
the classic cluster-collapsing recurrence places the cells of a segment
optimally for weighted quadratic displacement given the insertion order.
The role in the flow matches Domino's [17]: turn a nearly-overlap-free
global placement into a legal row placement while moving each cell as
little as possible.  This engine runs that algorithm on flat array state so
it scales to 100k+-cell netlists:

- **Spatial row index**: candidate rows come from a two-pointer expansion
  around the cell's y (nearest row first, ties to the lower row), instead
  of an ``argsort`` over every segment per cell.  The expansion stops as
  soon as the monotonically growing y-cost alone exceeds the best known
  total cost — an exact prune, since cost >= y-cost.
- **Incremental trial costs**: a trial append simulates the cluster
  collapse backwards from the segment tail in O(#merges) instead of
  copying the whole cluster list.
- **Flat cluster state**: each segment keeps parallel float lists
  ``(x, e, q, w)`` plus each cluster's start into its placed-cell list;
  final positions are reconstructed in one vectorized pass per segment.
- **Banded parallelism**: with ``bands > 1`` the row index is split into
  contiguous horizontal bands, each cell is pre-assigned to the band of
  its nearest row, and the bands sweep independently (optionally on a
  thread pool).  A band simulates the *global* nearest-row expansion but
  trials only in-band rows; the moment it visits an out-of-band row where
  the serial sweep would not already have stopped (neither the radius
  break nor the exact y-cost prune fires) the cell *escapes* — the band
  is merged with its neighbor in the escape direction and re-run.  In a
  partition with no escapes every cell provably sees exactly the serial
  trial sequence, so the merged result is bit-identical to the serial
  sweep at any band/thread count; in the worst case merging degenerates
  to one band, which *is* the serial sweep.

The sweep itself (cells sorted by desired left edge) and every tie-breaking
rule match the per-cluster scalar Abacus bit for bit.  That scalar form is
the correctness oracle :class:`repro.testing.oracles.AbacusLegalizer`: the
cross-check suite (``tests/test_legalize_vector.py``) pins vectorized-vs-
scalar positions on randomized instances, with and without obstacles, and
``tests/test_legalize_banded.py`` pins banded-vs-serial equality.
"""

from __future__ import annotations

from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import PlacementRegion, Rect
from ..netlist import CellKind, Placement
from .segments import Segment, build_segments

_INF = float("inf")

#: Below this many standard cells a banded request falls back to serial —
#: band bookkeeping costs more than it saves on small instances.
SERIAL_FALLBACK_CELLS = 20_000

#: Auto band sizing (``bands=0``): one band per this many cells.
_CELLS_PER_BAND = 50_000

#: Keep at least this many rows per band so the escape rate stays low
#: (cells stop within ``row_search_radius`` rows of their target).
_MIN_ROWS_PER_BAND = 8


@dataclass
class LegalizationResult:
    """A legal placement plus displacement statistics."""

    placement: Placement
    mean_displacement: float
    max_displacement: float
    failed_cells: List[int] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return not self.failed_cells


class RowIndex:
    """Segments grouped by row, bottom-up, for nearest-row search."""

    def __init__(self, segments: Sequence[Segment]):
        # build_segments emits rows bottom-up and segments left-to-right,
        # so grouping by center_y preserves both orders.
        self.segments = list(segments)
        ys: List[float] = []
        groups: List[List[int]] = []
        for si, seg in enumerate(self.segments):
            if not ys or seg.center_y != ys[-1]:
                ys.append(seg.center_y)
                groups.append([])
            groups[-1].append(si)
        self.row_y = np.array(ys)
        self.row_segments = groups


class _SegState:
    """Flat cluster state of one segment (lists, not dataclasses)."""

    __slots__ = ("xlo", "xhi", "center_y", "width", "used", "cx", "ce", "cq",
                 "cw", "starts", "cells", "widths", "offsets")

    def __init__(self, segment: Segment):
        self.xlo = segment.xlo
        self.xhi = segment.xhi
        self.center_y = segment.center_y
        self.width = segment.width
        # Accumulated used width; free space is computed as one subtraction
        # (``width - used``) to match the scalar oracle's rounding exactly.
        self.used = 0.0
        # Parallel per-cluster arrays: left edge, weight, q-sum, width.
        self.cx: List[float] = []
        self.ce: List[float] = []
        self.cq: List[float] = []
        self.cw: List[float] = []
        # starts[i] = index into `cells` of cluster i's first cell.
        self.starts: List[int] = []
        # Placed cells in append order (clusters are contiguous runs),
        # with each cell's offset from its cluster's left edge.  Offsets
        # are updated at merge time with the scalar's exact arithmetic
        # (``prev.w + off``) so final coordinates stay bit-identical.
        self.cells: List[int] = []
        self.widths: List[float] = []
        self.offsets: List[float] = []

    def trial(self, width: float, weight: float, x_desired: float,
              y_cost: float) -> float:
        """Cost of appending, simulated backwards in O(#merges)."""
        if width > self.width - self.used + 1e-9:
            return _INF
        xlo, xhi = self.xlo, self.xhi
        e = weight
        q = weight * x_desired
        w = width
        x = q / e
        if x < xlo:
            x = xlo
        if x > xhi - w:
            x = xhi - w
        cx, ce, cq, cw = self.cx, self.ce, self.cq, self.cw
        k = len(cx) - 1
        while k >= 0 and cx[k] + cw[k] > x + 1e-12:
            q = cq[k] + q - e * cw[k]
            e += ce[k]
            w += cw[k]
            x = q / e
            if x < xlo:
                x = xlo
            if x > xhi - w:
                x = xhi - w
            k -= 1
        new_cell_x = x + w - width
        # ``** 2`` (not ``d * d``) to stay bit-identical with the scalar
        # oracle on near-tie cost comparisons.
        return weight * (new_cell_x - x_desired) ** 2 + y_cost

    def append(self, cell: int, width: float, weight: float,
               x_desired: float) -> None:
        """Abacus PlaceRow step: append the cell, collapse clusters."""
        xlo, xhi = self.xlo, self.xhi
        cx, ce, cq, cw = self.cx, self.ce, self.cq, self.cw
        offsets = self.offsets
        start = len(self.cells)
        self.cells.append(cell)
        self.widths.append(width)
        offsets.append(0.0)
        e = weight
        q = weight * x_desired
        w = width
        x = q / e
        if x < xlo:
            x = xlo
        if x > xhi - w:
            x = xhi - w
        while cx and cx[-1] + cw[-1] > x + 1e-12:
            pw = cw.pop()
            # The merging cluster's cells shift right by the previous
            # cluster's width — ``pw + off``, the scalar's exact order.
            for j in range(start, len(offsets)):
                offsets[j] = pw + offsets[j]
            # Scalar append uses ``prev.q += c.q - c.e * prev.w`` — i.e.
            # ``pq + (q - e*pw)`` — a *different* association from its own
            # trial path ``(pq + q) - e*pw``.  Match each path exactly.
            q = cq.pop() + (q - e * pw)
            e += ce.pop()
            w += pw
            cx.pop()
            start = self.starts.pop()
            x = q / e
            if x < xlo:
                x = xlo
            if x > xhi - w:
                x = xhi - w
        cx.append(x)
        ce.append(e)
        cq.append(q)
        cw.append(w)
        self.starts.append(start)
        self.used += width


def _sweep_band(
    states: List[Optional[_SegState]],
    ys: List[float],
    row_segments: List[List[int]],
    radius: int,
    idxs: List[int],
    widths: List[float],
    weights: List[float],
    xds: List[float],
    yds: List[float],
    row_lo: int,
    row_hi: int,
) -> Tuple[List[int], int]:
    """Sweep one band's cells (global x order) over rows [row_lo, row_hi).

    Simulates the *global* two-pointer nearest-row expansion — out-of-band
    rows are counted and checked against the serial break conditions, but
    never trialed.  Returns ``(failed, escape)`` where ``escape`` is 0 for
    a clean run, -1/+1 when a cell reached a row below/above the band at a
    point where the serial sweep would have kept going (its result could
    depend on out-of-band state; the caller merges bands and re-runs).
    With ``row_lo == 0 and row_hi == len(ys)`` this *is* the serial sweep
    and can never escape.
    """
    nrows = len(ys)
    failed: List[int] = []
    for i, width, weight, xd, yd in zip(idxs, widths, weights, xds, yds):
        best_cost = _INF
        best: Optional[int] = None
        rows_tried = 0
        # Inlined two-pointer nearest-row expansion (ties to the lower
        # row) — a generator here costs more than the whole trial.
        hi = bisect_left(ys, yd)
        lo = hi - 1
        while lo >= 0 or hi < nrows:
            if lo < 0:
                r = hi
                hi += 1
            elif hi >= nrows:
                r = lo
                lo -= 1
            elif yd - ys[lo] <= ys[hi] - yd:
                r = lo
                lo -= 1
            else:
                r = hi
                hi += 1
            rows_tried += 1
            if rows_tried > radius and best is not None:
                break
            y_cost = weight * (ys[r] - yd) ** 2
            if best is not None and y_cost >= best_cost:
                # Rows only get farther from here on; cost >= y-cost.
                break
            if r < row_lo:
                return failed, -1
            if r >= row_hi:
                return failed, 1
            for si in row_segments[r]:
                if best is not None and y_cost >= best_cost:
                    break
                cost = states[si].trial(width, weight, xd, y_cost)
                if cost < best_cost:
                    best_cost = cost
                    best = si
        if best is None:
            failed.append(i)
            continue
        states[best].append(i, width, weight, xd)
    return failed, 0


class VectorAbacusLegalizer:
    """Row legalizer: scalar-Abacus semantics on flat array state.

    ``bands``: 1 = serial sweep, N > 1 = banded-parallel sweep over N row
    bands (bit-identical output), 0 = auto (one band per ~50k cells, serial
    below 20k).  ``threads`` > 1 runs bands on a thread pool; the result
    never depends on the thread count.
    """

    def __init__(
        self,
        region: PlacementRegion,
        obstacles: Sequence[Rect] = (),
        row_search_radius: int = 6,
        bands: int = 0,
        threads: int = 1,
    ):
        self.region = region
        self.obstacles = list(obstacles)
        self.row_search_radius = row_search_radius
        self.bands = bands
        self.threads = max(1, threads)
        self.segments = build_segments(region, self.obstacles)
        if not self.segments:
            raise ValueError("no free segments to legalize into")
        self.index = RowIndex(self.segments)

    def _effective_bands(self, n_cells: int, nrows: int) -> int:
        if self.bands == 1:
            return 1
        if self.bands <= 0:
            if n_cells < SERIAL_FALLBACK_CELLS:
                return 1
            requested = n_cells // _CELLS_PER_BAND
        else:
            requested = self.bands
        return max(1, min(requested, nrows // _MIN_ROWS_PER_BAND))

    def legalize(self, placement: Placement) -> LegalizationResult:
        nl = placement.netlist
        row_segments = self.index.row_segments
        radius = self.row_search_radius

        movable = nl.movable_indices
        if movable.size:
            std = movable[~nl.kind_mask(CellKind.BLOCK)[movable]]
        else:
            std = movable
        widths = nl.widths[std]
        weights = nl.areas[std]
        x_desired = placement.x[std] - widths / 2.0
        y_desired = placement.y[std]
        order = np.argsort(x_desired, kind="stable")

        # tolist() yields Python floats, so all sweep arithmetic below uses
        # CPython semantics — NumPy's scalar ``**`` rounds differently in
        # the last bit, which would break bit-identity with the scalar
        # oracle on near-tie row choices.
        ys = self.index.row_y.tolist()
        nrows = len(ys)
        cells = (
            std[order].tolist(),
            widths[order].tolist(),
            weights[order].tolist(),
            x_desired[order].tolist(),
            y_desired[order].tolist(),
        )

        nbands = self._effective_bands(len(cells[0]), nrows)
        if nbands <= 1:
            states = [_SegState(seg) for seg in self.segments]
            failed, _ = _sweep_band(
                states, ys, row_segments, radius, *cells, 0, nrows
            )
        else:
            states, failed = self._banded_sweep(
                cells, ys, row_segments, radius, y_desired[order], nbands
            )

        out = placement.copy()
        for state in states:
            if state is None or not state.cells:
                continue
            placed = np.array(state.cells, dtype=np.int64)
            cell_w = np.array(state.widths)
            offs = np.array(state.offsets)
            starts = np.array(state.starts, dtype=np.int64)
            counts = np.diff(np.concatenate((starts, [len(state.cells)])))
            cluster_x = np.repeat(np.array(state.cx), counts)
            # (c.x + off) + w/2 — the scalar's exact evaluation order.
            out.x[placed] = (cluster_x + offs) + cell_w / 2.0
            out.y[placed] = state.center_y
        out.reset_fixed()
        moved = out.displacement_from(placement)
        return LegalizationResult(
            placement=out,
            mean_displacement=float(moved[movable].mean()) if movable.size else 0.0,
            max_displacement=float(moved[movable].max()) if movable.size else 0.0,
            failed_cells=failed,
        )

    def _banded_sweep(
        self,
        cells: Tuple[list, list, list, list, list],
        ys: List[float],
        row_segments: List[List[int]],
        radius: int,
        yd_sorted: np.ndarray,
        nbands: int,
    ) -> Tuple[List[Optional[_SegState]], List[int]]:
        """Run the sweep over ``nbands`` row bands, merging on escape.

        Bands whose cells never provably-interact with out-of-band state
        keep their results; a band where any cell escapes is merged with
        its neighbor in the escape direction and re-run.  The band count
        strictly decreases on every merge round, so this terminates — in
        the worst case with one band, the serial sweep itself.
        """
        nrows = len(ys)
        ys_arr = self.index.row_y

        # Each cell's first-tried row (nearest, ties to the lower row) —
        # the band assignment key.  Matches the sweep's first expansion
        # step exactly.
        hi = np.searchsorted(ys_arr, yd_sorted, side="left")
        lo = hi - 1
        take_lo = (lo >= 0) & (
            (hi >= nrows) | ((yd_sorted - ys_arr[np.minimum(lo, nrows - 1)])
                             <= (ys_arr[np.minimum(hi, nrows - 1)] - yd_sorted))
        )
        r0 = np.where(take_lo, lo, np.minimum(hi, nrows - 1))

        # Initial partition: contiguous row ranges with ~equal rows.
        edges = np.linspace(0, nrows, nbands + 1).astype(int)
        bands: List[Tuple[int, int]] = [
            (int(edges[k]), int(edges[k + 1]))
            for k in range(nbands)
            if edges[k] < edges[k + 1]
        ]

        def run_band(band: Tuple[int, int]):
            row_lo, row_hi = band
            states: List[Optional[_SegState]] = [None] * len(self.segments)
            for r in range(row_lo, row_hi):
                for si in row_segments[r]:
                    states[si] = _SegState(self.segments[si])
            mask = (r0 >= row_lo) & (r0 < row_hi)
            sel = np.flatnonzero(mask)
            band_cells = [
                [col[j] for j in sel.tolist()] for col in cells
            ]
            failed, escape = _sweep_band(
                states, ys, row_segments, radius, *band_cells,
                row_lo, row_hi,
            )
            return band, states, failed, escape

        results = {}
        pending = list(bands)
        while pending:
            if self.threads > 1 and len(pending) > 1:
                with ThreadPoolExecutor(
                    max_workers=min(self.threads, len(pending))
                ) as pool:
                    outcomes = list(pool.map(run_band, pending))
            else:
                outcomes = [run_band(band) for band in pending]

            escapes = []
            for band, states, failed, escape in outcomes:
                if escape == 0:
                    results[band] = (states, failed)
                else:
                    escapes.append((band, escape))
            if not escapes:
                break

            # Merge every escaped band with its neighbor in the escape
            # direction (deterministic: escape sets do not depend on
            # thread scheduling), then re-run only the merged bands.
            bands.sort()
            merged_into = list(range(len(bands)))

            def root(k: int) -> int:
                while merged_into[k] != k:
                    k = merged_into[k]
                return k

            pos = {band: k for k, band in enumerate(bands)}
            for band, direction in escapes:
                k = pos[band]
                other = k + direction
                if 0 <= other < len(bands):
                    a, b = root(k), root(other)
                    if a != b:
                        merged_into[max(a, b)] = min(a, b)
            groups: dict = {}
            for k, band in enumerate(bands):
                groups.setdefault(root(k), []).append(band)
            new_bands: List[Tuple[int, int]] = []
            pending = []
            for members in groups.values():
                lo_r = min(b[0] for b in members)
                hi_r = max(b[1] for b in members)
                merged = (lo_r, hi_r)
                new_bands.append(merged)
                if len(members) > 1:
                    pending.append(merged)
                    for b in members:
                        results.pop(b, None)
            bands = sorted(new_bands)

        # Combine: bands own disjoint segment sets, so a plain overlay
        # merges them.  Failed cells can only occur in a full-range band
        # (any escape re-merges first), so concatenation order is moot.
        combined: List[Optional[_SegState]] = [None] * len(self.segments)
        failed_all: List[int] = []
        for band in bands:
            states, failed = results[band]
            for si, st in enumerate(states):
                if st is not None:
                    combined[si] = st
            failed_all.extend(failed)
        return combined, failed_all

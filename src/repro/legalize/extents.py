"""Batched exact net-extent evaluation for detailed-placement moves.

A scalar improver (such as :mod:`repro.legalize.domino`) prices every
candidate move by re-walking the affected nets' pins in Python — exact,
but ~30 us per move, which would make the improvement pass the dominant
cost of the whole flow.  This module prices
*thousands* of candidate moves in a handful of numpy passes while keeping
the deltas exact:

- :class:`MoveEvaluator` holds CSR views of the netlist (net -> pins and
  cell -> nets) plus the current per-net bounding boxes, and evaluates the
  exact HPWL delta of a batch of one- or two-cell moves by gathering every
  affected net's pins, overriding the moved cells' coordinates, and
  reducing per (move, net) segment;
- :meth:`MoveEvaluator.exclusive_x` returns, for every (cell, net)
  incidence, the net's x extent *excluding that cell's pins* — the
  ingredient for vectorized optimal-slide targets (the 1-D HPWL optimum is
  a median of these exclusive interval endpoints).

Deltas are exact as long as the moves actually applied together touch
disjoint net sets; the improver guarantees that with a dirty-net filter.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..netlist import Netlist


def _segment_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat index array covering ``[starts[i], starts[i]+counts[i])`` runs."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return np.arange(total, dtype=np.int64) + offsets


class MoveEvaluator:
    """Exact, batched HPWL deltas over a fixed netlist.

    Construction is O(pins log pins); every :meth:`deltas` call is a few
    numpy passes over the pins of the affected nets only.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.net_start = netlist.net_ptr
        self.pin_cell = netlist.pin_cell
        self.pin_dx = netlist.pin_dx
        self.pin_dy = netlist.pin_dy
        self.degree = netlist.net_degree
        num_nets = len(self.degree)
        net_of_pin = np.repeat(np.arange(num_nets, dtype=np.int64), self.degree)

        # Unique (cell, net) incidence pairs in (cell, net) order -> CSR
        # over cells.  A cell with several pins on one net appears once.
        order = np.lexsort((net_of_pin, self.pin_cell))
        c_sorted = self.pin_cell[order]
        n_sorted = net_of_pin[order]
        if c_sorted.size:
            first = np.concatenate(
                ([True], (c_sorted[1:] != c_sorted[:-1]) | (n_sorted[1:] != n_sorted[:-1]))
            )
        else:
            first = np.zeros(0, dtype=bool)
        self.inc_cell = c_sorted[first]
        self.inc_net = n_sorted[first]
        self.cell_ptr = np.searchsorted(
            self.inc_cell, np.arange(netlist.num_cells + 1)
        )
        # Python-list mirrors for hot scalar loops (list indexing is an
        # order of magnitude faster than numpy scalar indexing).
        self.cell_ptr_list = self.cell_ptr.tolist()
        self.inc_net_list = self.inc_net.tolist()

    # ------------------------------------------------------------------
    def extents(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-net (min_x, max_x, min_y, max_y) at the given coordinates."""
        px = x[self.pin_cell] + self.pin_dx
        py = y[self.pin_cell] + self.pin_dy
        seg = self.net_start[:-1]
        return (
            np.minimum.reduceat(px, seg),
            np.maximum.reduceat(px, seg),
            np.minimum.reduceat(py, seg),
            np.maximum.reduceat(py, seg),
        )

    def exclusive_x(
        self, x: np.ndarray, cells: np.ndarray = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exclusive x extents per (cell, net) incidence pair.

        Returns ``(excl_min, excl_max, inc_cell)``: per incidence pair, the
        min/max pin x of the net over pins whose cell differs from the
        incidence cell (``+inf`` / ``-inf`` where the net has no other
        cells' pins), plus the incidence's cell index.  With ``cells``
        given, only that subset's incidences are evaluated — O(pins of the
        subset's nets) instead of O(all pins) — which keeps late, nearly
        converged improvement passes cheap.
        """
        if cells is None:
            inc_cell = self.inc_cell
            inc_net = self.inc_net
            nets = None
            deg = self.degree
            seg = self.net_start[:-1]
            seg_end = self.net_start[1:] - 1
            px = x[self.pin_cell] + self.pin_dx
            cell_f = self.pin_cell
            net_key = np.repeat(np.arange(len(deg), dtype=np.int64), deg)
        else:
            cnt = self.cell_ptr[cells + 1] - self.cell_ptr[cells]
            inc_idx = _segment_gather(self.cell_ptr[cells], cnt)
            inc_cell = self.inc_cell[inc_idx]
            inc_net = self.inc_net[inc_idx]
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

        n = inc_net if nets is None else np.searchsorted(nets, inc_net)
        excl_min = np.where(inc_cell != min1_cell[n], min1[n], min2[n])
        excl_max = np.where(inc_cell != max1_cell[n], max1[n], max2[n])
        return excl_min, excl_max, inc_cell

    # ------------------------------------------------------------------
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
        """Exact HPWL delta (um) of each candidate move.

        Each move relocates ``cell_a[m]`` to ``(new_ax[m], new_ay[m])`` and,
        when ``cell_b`` is given, simultaneously ``cell_b[m]`` to
        ``(new_bx[m], new_by[m])``.  Every other cell stays put.  Negative
        deltas are improvements.  ``x_only=True`` asserts that no move
        changes any y coordinate, so the (cancelling) y extents are skipped
        entirely — about half the work for row-internal moves.
        """
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
            # Both cells may share a net; dedup the (move, net) pairs.
            # Sort + diff beats hash-based np.unique at these sizes.
            pair_key = np.sort(move_of * num_nets + nets)
            first = np.empty(len(pair_key), dtype=bool)
            first[0] = True
            np.not_equal(pair_key[1:], pair_key[:-1], out=first[1:])
            pair_key = pair_key[first]
            pair_move = pair_key // num_nets
            pair_net = pair_key % num_nets
        else:
            # One cell per move: its incident nets are already unique.
            pair_move = move_of
            pair_net = nets

        # Gather every affected net's pins, one flat segment per pair.
        # Everything from here on is O(affected pins), never O(all pins).
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
        # Fuse every extent reduction into ONE min + ONE max reduceat over
        # stacked (old-x, new-x[, old-y, new-y]) blocks — reduceat's
        # per-call overhead dominates at typical batch sizes.
        blocks = [px_old, px]
        if not x_only:
            fdy = self.pin_dy[flat]
            py_old = y[fcell] + fdy
            py = np.where(is_a, new_ay[fmove] + fdy, py_old)
            if cell_b is not None:
                py = np.where(is_b, new_by[fmove] + fdy, py)
            blocks += [py_old, py]
        total = len(px)
        stacked = np.concatenate(blocks)
        segs = np.concatenate(
            [seg + k * total for k in range(len(blocks))]
        )
        ext = np.maximum.reduceat(stacked, segs) - np.minimum.reduceat(
            stacked, segs
        )
        npairs = len(seg)
        pair_delta = ext[npairs : 2 * npairs] - ext[:npairs]
        if not x_only:
            pair_delta = pair_delta + (
                ext[3 * npairs :] - ext[2 * npairs : 3 * npairs]
            )
        return np.bincount(pair_move, weights=pair_delta, minlength=nmoves)

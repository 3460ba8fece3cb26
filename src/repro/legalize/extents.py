"""Exact HPWL deltas of detailed-placement moves from cached net extremes.

A scalar improver (such as :mod:`repro.legalize.domino`) prices every
candidate move by re-walking the affected nets' pins in Python — exact,
but ~30 us per move.  :class:`MoveEvaluator` prices thousands of candidate
one- and two-cell moves in a handful of numpy passes without reading a
single pin: like the net bounding boxes a detailed placer keeps up to
date, it caches, per net and per axis, the three largest pin maxima and
the three smallest pin minima, each over distinct cells, at the live
coordinates of the placement being improved.

- A cell's pins on a net reduce to the cell's extreme pin offsets on that
  net: IEEE rounding is monotone, so the largest of ``fl(x + dx)`` over
  the pins is ``fl(x + max dx)``.
- A moved net's new extent is the first cached extreme whose cell did not
  move (a swap excludes two cells, hence three per side), combined with
  the moved cells' new extremes.  ``min``/``max`` only select values, so
  every extent, and every old-minus-new difference, is the same float that
  a reduction over all of the net's pins gives
  (``repro.testing.oracles.PinGatheringEvaluator`` is that reduction, and
  the tests pin the two to each other bit for bit).  A move's delta sums
  its per-net deltas in ascending net order, x before y, as that
  reduction does, so the sums are the same floats too.
- :meth:`MoveEvaluator.refresh` re-reads the extremes of the nets whose
  cells the caller moved; :class:`MoveBatch` re-prices only the (move,
  net) pairs that sit on such nets.
- :meth:`MoveEvaluator.exclusive_x` returns, for every (cell, net)
  incidence of some cells, the net's x extent *excluding that cell's
  pins* — the ingredient for optimal-slide targets (the 1-D HPWL optimum
  is a median of these exclusive interval endpoints).

Deltas are exact as long as the moves actually applied together touch
disjoint net sets; the improver guarantees that with a dirty-net filter.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    """Exact, batched HPWL deltas at the live coordinates ``x``/``y``.

    The evaluator keeps references to ``x`` and ``y`` (it never copies or
    writes them).  Whoever moves cells must call :meth:`refresh` with every
    net of the moved cells before the next pricing.  Construction is
    O(pins log pins).

    The cache has four sides per net, stacked as rows ``side * num_nets +
    net``: x maxima, negated x minima, y maxima, negated y minima.  Storing
    a minimum negated (exact) makes every side a "largest three" list, and
    a net's extent on an axis is ``max + (-min)``, the same float as
    ``max - min``.
    """

    def __init__(self, netlist: Netlist, x: np.ndarray, y: np.ndarray):
        self.x = x
        self.y = y
        num_nets = netlist.num_nets
        self.num_nets = num_nets
        net_of_pin = np.repeat(
            np.arange(num_nets, dtype=np.int64), netlist.net_degree
        )

        # Unique (cell, net) incidence pairs in (cell, net) order -> CSR
        # over cells.  A cell with several pins on one net appears once,
        # with its extreme pin offsets on the net.
        order = np.lexsort((net_of_pin, netlist.pin_cell))
        c_sorted = netlist.pin_cell[order]
        n_sorted = net_of_pin[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (c_sorted[1:] != c_sorted[:-1]) | (n_sorted[1:] != n_sorted[:-1])
        starts = np.flatnonzero(first)
        self.inc_cell = c_sorted[starts]
        self.inc_net = n_sorted[starts]
        self.cell_ptr = np.searchsorted(
            self.inc_cell, np.arange(netlist.num_cells + 1)
        )
        # Offset rows in side order: x max, negated x min, y max, negated
        # y min (a side's value is ``sign * coordinate + offset`` with sign
        # -1 on the negated sides), plus a last column, -inf on every side,
        # for "cell not on the net".
        dx = netlist.pin_dx[order]
        dy = netlist.pin_dy[order]
        offsets = np.full((4, len(starts) + 1), -np.inf)
        if starts.size:
            offsets[0, :-1] = np.maximum.reduceat(dx, starts)
            offsets[1, :-1] = -np.minimum.reduceat(dx, starts)
            offsets[2, :-1] = np.maximum.reduceat(dy, starts)
            offsets[3, :-1] = -np.minimum.reduceat(dy, starts)
        self.offsets = offsets

        # Net-major copy of the incidences, for refreshes.
        by_net = np.argsort(self.inc_net, kind="stable")
        self._net_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(self.inc_net, minlength=num_nets)))
        )
        self._net_cell = self.inc_cell[by_net]
        self._net_offsets = offsets[:, by_net]
        #: ``_top[r][row]``: the rank-``r`` value of a side (``r`` < 3);
        #: ``_top_cell[r][row]``: its cell (``r`` < 2; rank 2 is only read
        #: when both cells above it moved, so its cell never matters).
        self._top = np.full((3, 4 * num_nets), -np.inf)
        self._top_cell = np.full((2, 4 * num_nets), -1, dtype=np.int64)
        self._pos = np.arange(4 * len(self.inc_cell), dtype=np.int64)
        self.refresh(np.arange(num_nets, dtype=np.int64))

    # ------------------------------------------------------------------
    def refresh(self, nets: np.ndarray, y: bool = True) -> None:
        """Re-read the cached extremes of ``nets`` (distinct net indices)
        from the live coordinates.

        ``y=False`` refreshes the x sides only: for callers whose moves
        left every y coordinate unchanged.
        """
        ptr = self._net_ptr
        starts = ptr[nets]
        cnt = ptr[nets + 1] - starts
        ends = np.cumsum(cnt)
        size = int(ends[-1]) if len(nets) else 0
        if not size:
            return
        seg0 = ends - cnt
        # The nets' incidences back to back.
        idx = self._pos[:size] + np.repeat(starts - seg0, cnt)
        cells = self._net_cell[idx]
        k = 4 if y else 2
        vals = np.take(self._net_offsets[:k], idx, axis=1)
        # (-x) + (-off) is exactly -(x + off): rounding is symmetric.
        cx = self.x[cells]
        vals[0] += cx
        vals[1] -= cx
        if y:
            cy = self.y[cells]
            vals[2] += cy
            vals[3] -= cy
        # Complex numbers order lexicographically, so the maximum of
        # ``value + 1j * position`` over a side is its largest value and
        # where it sits, in one pass.
        keyed = np.empty((k, size), dtype=np.complex128)
        keyed.real = vals
        keyed.imag = self._pos[: k * size].reshape(k, size)
        keyed = keyed.ravel()
        owner = np.concatenate([cells] * k)
        sides = np.arange(k)[:, None]
        rows = (nets + self.num_nets * sides).ravel()
        seg = (seg0 + size * sides).ravel()
        # Rank by rank: take each side's largest value, note its cell, and
        # knock it out.  Only the value is knocked out: an entry keeps its
        # position, so a side that has run out (all -inf, as on a net
        # whose pins are all on one cell) still points into itself.  Its
        # cell labels then carry no meaning, and none is needed (every
        # lower rank is -inf).
        for r in range(3):
            best = np.maximum.reduceat(keyed, seg)
            self._top[r][rows] = best.real
            if r == 2:
                break
            at = best.imag.astype(np.int64)
            self._top_cell[r][rows] = owner[at]
            keyed.real[at] = -np.inf

    # ------------------------------------------------------------------
    def exclusive_x(self, cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Exclusive x extents per (cell, net) incidence of ``cells``.

        Returns ``(excl_min, excl_max)``: per incidence, in the order of
        ``cells`` and then of net, the min/max pin x of the net over pins
        whose cell differs from the incidence cell (``+inf`` / ``-inf``
        where the net has no other cells' pins).
        """
        ptr = self.cell_ptr
        idx = _segment_gather(ptr[cells], ptr[cells + 1] - ptr[cells])
        cell = self.inc_cell[idx]
        net = self.inc_net[idx]
        top, top_cell = self._top, self._top_cell
        out = []
        for row in (net, net + self.num_nets):
            out.append(np.where(
                top_cell[0][row] != cell, top[0][row], top[1][row]
            ))
        return -out[1], out[0]

    # ------------------------------------------------------------------
    def moves(
        self,
        cell_a: np.ndarray,
        new_ax: np.ndarray,
        new_ay: np.ndarray,
        cell_b: np.ndarray = None,
        new_bx: np.ndarray = None,
        new_by: np.ndarray = None,
        x_only: bool = False,
    ) -> "MoveBatch":
        """A batch of candidate moves, priced at the current coordinates.

        Each move relocates ``cell_a[m]`` to ``(new_ax[m], new_ay[m])`` and,
        when ``cell_b`` is given, simultaneously ``cell_b[m]`` to
        ``(new_bx[m], new_by[m])``.  Every other cell stays put.
        ``x_only=True`` asserts that no move changes any y coordinate, so
        the (cancelling) y extents are skipped entirely.
        """
        batch = MoveBatch(
            self, cell_a, new_ax, new_ay, cell_b, new_bx, new_by, x_only
        )
        batch.price()
        return batch

    def deltas(
        self,
        cell_a: np.ndarray,
        new_ax: np.ndarray,
        new_ay: np.ndarray,
        cell_b: np.ndarray = None,
        new_bx: np.ndarray = None,
        new_by: np.ndarray = None,
        x_only: bool = False,
    ) -> np.ndarray:
        """Exact HPWL delta (um) of each candidate move (see :meth:`moves`).

        Negative deltas are improvements.
        """
        return self.moves(
            cell_a, new_ax, new_ay, cell_b, new_bx, new_by, x_only
        ).deltas()


class MoveBatch:
    """The (move, net) pairs of a batch of candidate moves and their deltas.

    Pairs are held in (move, ascending net) order — a net shared by both
    cells of a swap once — so :meth:`deltas` sums each move's pair deltas
    in that order, x before y.  Built once per batch; :meth:`price`
    re-prices any subset against the evaluator's current cache.
    """

    def __init__(self, ev: MoveEvaluator, cell_a, new_ax, new_ay,
                 cell_b=None, new_bx=None, new_by=None, x_only=False):
        self.ev = ev
        self.num_moves = nmoves = len(cell_a)
        self.sides = 2 if x_only else 4
        ptr = ev.cell_ptr
        no_inc = len(ev.inc_cell)  # the offsets' "not on the net" column
        if cell_b is None:
            # One cell per move: its incident nets are already unique.
            cnt = ptr[cell_a + 1] - ptr[cell_a]
            inc_a = _segment_gather(ptr[cell_a], cnt)
            self.pair_move = np.repeat(np.arange(nmoves, dtype=np.int64), cnt)
            self.pair_net = ev.inc_net[inc_a]
            inc_b = None
        else:
            # Both cells' incidences, keyed (move, net).  A stable sort
            # puts a's incidence first on a net both cells share; the
            # pair takes the b incidence of its duplicate.
            cells = np.concatenate((cell_a, cell_b))
            cnt = ptr[cells + 1] - ptr[cells]
            inc = _segment_gather(ptr[cells], cnt)
            move = np.repeat(np.tile(np.arange(nmoves, dtype=np.int64), 2), cnt)
            net = ev.inc_net[inc]
            order = np.argsort(move * max(ev.num_nets, 1) + net, kind="stable")
            move, net, inc = move[order], net[order], inc[order]
            from_b = order >= int(cnt[:nmoves].sum())
            inc_a = np.where(from_b, no_inc, inc)
            inc_b = np.where(from_b, inc, no_inc)
            dup = np.flatnonzero((net[1:] == net[:-1]) & (move[1:] == move[:-1]))
            inc_b[dup] = inc_b[dup + 1]
            first = np.ones(len(order), dtype=bool)
            first[dup + 1] = False
            self.pair_move = move[first]
            self.pair_net = net[first]
            inc_a, inc_b = inc_a[first], inc_b[first]
            cnt = np.bincount(self.pair_move, minlength=nmoves)
        pm = self.pair_move
        self.move_ptr = np.concatenate(([0], np.cumsum(cnt[:nmoves])))
        # Per pair and side, the largest (negated-minimum) value the moved
        # cells take on the net: constant for the batch's lifetime.
        moved = self._side_values(ev, pm, new_ax, new_ay, inc_a)
        if cell_b is not None:
            np.maximum(
                moved, self._side_values(ev, pm, new_bx, new_by, inc_b),
                out=moved,
            )
        self._moved = moved
        self._rows = self.pair_net + ev.num_nets * np.arange(self.sides)[:, None]
        self._cell_a = cell_a[pm]
        self._cell_b = None if cell_b is None else cell_b[pm]
        self.pair_delta = np.zeros(len(pm))

    def _side_values(self, ev, pm, new_x, new_y, inc) -> np.ndarray:
        """Per side and pair, a moved cell's extreme at its new place."""
        vals = np.take(ev.offsets[: self.sides], inc, axis=1)
        px = new_x[pm]
        vals[0] += px
        vals[1] -= px
        if self.sides == 4:
            py = new_y[pm]
            vals[2] += py
            vals[3] -= py
        return vals

    def price(self, pairs: Optional[np.ndarray] = None) -> None:
        """(Re-)price ``pairs`` (indices; all by default) against the cache."""
        ev = self.ev
        rows, a, b, moved = self._rows, self._cell_a, self._cell_b, self._moved
        if pairs is not None:
            if not pairs.size:
                return
            rows = np.take(rows, pairs, axis=1)
            moved = np.take(moved, pairs, axis=1)
            a = a[pairs]
            if b is not None:
                b = b[pairs]
        top, top_cell = ev._top, ev._top_cell
        t0 = top[0][rows]
        c0 = top_cell[0][rows]
        # The first cached extreme whose cell stayed put.
        if b is None:
            rest = np.where(c0 != a, t0, top[1][rows])
        else:
            c1 = top_cell[1][rows]
            rest = np.where(
                (c0 != a) & (c0 != b), t0,
                np.where((c1 != a) & (c1 != b), top[1][rows], top[2][rows]),
            )
        new = np.maximum(rest, moved)
        delta = (new[0] + new[1]) - (t0[0] + t0[1])
        if self.sides == 4:
            delta = delta + ((new[2] + new[3]) - (t0[2] + t0[3]))
        if pairs is None:
            self.pair_delta = delta
        else:
            self.pair_delta[pairs] = delta

    def deltas(self) -> np.ndarray:
        """Exact HPWL delta (um) of every move at its last pricing."""
        return np.bincount(
            self.pair_move, weights=self.pair_delta, minlength=self.num_moves
        )

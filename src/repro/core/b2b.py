"""Bound-to-bound (B2B) net model — the exact-HPWL follow-up net model.

The paper's clique model minimizes *squared* distance and needs the
GORDIAN-L re-weighting [14] to approximate linear wire length.  The
bound-to-bound model (introduced by the Kraftwerk authors' group in the
follow-up placer) is exact: per axis, connect every pin of a net to the two
*boundary* pins (leftmost and rightmost) with weights

    w_ij = w_net / ((p - 1) * |x_i - x_j|)

evaluated at the current placement.  At that placement the quadratic energy
of these springs equals the net's half-perimeter exactly, so a quadratic
solve is one fixed-point step toward the true linear-wire-length optimum.

Because the boundary pins change with the placement, the system is rebuilt
from scratch for every transformation (unlike the static clique/star edge
structure) — the model is selected with ``PlacerConfig(net_model="b2b")``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..netlist import Netlist, Placement
from .quadratic import AssembledSystem

_MIN_DIST_FLOOR = 1e-3  # microns; absolute floor of the distance guard


class B2BSystem:
    """Placement-dependent bound-to-bound system builder.

    Exposes the same interface as
    :class:`~repro.core.quadratic.QuadraticSystem` (``n_movable``,
    ``n_vars``, variable/placement conversion) so the placer can swap models
    freely.  There are no star variables: ``n_vars == n_movable``.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.n_movable = netlist.num_movable
        self.n_vars = self.n_movable
        self.n_stars = 0
        self._var_of_cell = np.full(netlist.num_cells, -1, dtype=np.int64)
        self._var_of_cell[netlist.movable_indices] = np.arange(self.n_movable)
        # Per-pin variable index (-1 for pins on fixed cells).
        self._pin_var = self._var_of_cell[netlist.pin_cell]
        # Distance guard ~ one cell width: like the linearization gamma, a
        # smaller guard welds coincident cells together with quasi-rigid
        # springs that the density forces cannot pull apart.
        if netlist.num_movable:
            self._min_dist = max(
                _MIN_DIST_FLOOR,
                float(netlist.widths[netlist.movable_indices].mean()),
            )
        else:
            self._min_dist = _MIN_DIST_FLOOR

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def assemble_at(
        self,
        placement: Placement,
        net_weights: Optional[np.ndarray] = None,
        anchor_weight: float = 0.0,
        anchor_xy: Tuple[float, float] = (0.0, 0.0),
    ) -> AssembledSystem:
        """Build both axes' systems for the given placement."""
        num_nets = self.netlist.num_nets
        runtime = np.ones(num_nets) if net_weights is None else np.asarray(net_weights)
        if runtime.shape != (num_nets,):
            raise ValueError("net_weights has wrong length")
        px, py = placement.pin_coords()
        Ax, bx = self._assemble_axis(
            px, self.netlist.pin_dx, runtime, anchor_weight, anchor_xy[0]
        )
        Ay, by = self._assemble_axis(
            py, self.netlist.pin_dy, runtime, anchor_weight, anchor_xy[1]
        )
        return AssembledSystem(Ax=Ax, bx=bx, Ay=Ay, by=by)

    def _assemble_axis(
        self,
        pin_pos: np.ndarray,  # absolute pin coordinates on this axis
        pin_off: np.ndarray,  # pin offsets from their cell centers
        runtime: np.ndarray,
        anchor_weight: float,
        anchor: float,
    ) -> Tuple[sp.csr_matrix, np.ndarray]:
        n = self.n_vars
        rows: list = []
        cols: list = []
        vals: list = []
        b = np.zeros(n)
        diag = np.full(n, float(anchor_weight))
        b += anchor_weight * anchor
        pin_var = self._pin_var

        def add_edge(pa: int, pb: int, weight: float) -> None:
            """Spring between pins pa/pb: cost w (x_a + o_a - x_b - o_b)^2."""
            va, vb = pin_var[pa], pin_var[pb]
            if va >= 0 and vb >= 0:
                diag[va] += weight
                diag[vb] += weight
                rows.append(va); cols.append(vb); vals.append(-weight)
                rows.append(vb); cols.append(va); vals.append(-weight)
                delta = pin_off[pa] - pin_off[pb]
                b[va] -= weight * delta
                b[vb] += weight * delta
            elif va >= 0:
                diag[va] += weight
                b[va] += weight * (pin_pos[pb] - pin_off[pa])
            elif vb >= 0:
                diag[vb] += weight
                b[vb] += weight * (pin_pos[pa] - pin_off[pb])
            # fixed-fixed: constant, drops out of the gradient

        start = self.netlist.net_ptr
        for j in range(self.netlist.num_nets):
            lo, hi = int(start[j]), int(start[j + 1])
            p = hi - lo
            if p < 2:
                continue
            seg = pin_pos[lo:hi]
            i_min = lo + int(np.argmin(seg))
            i_max = lo + int(np.argmax(seg))
            if i_min == i_max:  # all pins coincide on this axis
                i_max = lo if i_min != lo else lo + 1
            base = runtime[j] / (p - 1)
            d = max(abs(pin_pos[i_max] - pin_pos[i_min]), self._min_dist)
            add_edge(i_min, i_max, base / d)
            for pin in range(lo, hi):
                if pin == i_min or pin == i_max:
                    continue
                for bpin in (i_min, i_max):
                    d = max(abs(pin_pos[pin] - pin_pos[bpin]), self._min_dist)
                    add_edge(pin, bpin, base / d)

        A = sp.coo_matrix(
            (np.asarray(vals), (np.asarray(rows, dtype=np.int64),
                                np.asarray(cols, dtype=np.int64))),
            shape=(n, n),
        ).tocsr()
        A = A + sp.diags(diag, format="csr")
        return A, b

    # ------------------------------------------------------------------
    # Variable-vector <-> placement conversion
    # ------------------------------------------------------------------
    def vars_from_placement(self, placement: Placement):
        nl = self.netlist
        return (
            placement.x[nl.movable_indices].copy(),
            placement.y[nl.movable_indices].copy(),
        )

    def placement_from_vars(self, x, y, template: Placement) -> Placement:
        out = template.copy()
        out.x[self.netlist.movable_indices] = x[: self.n_movable]
        out.y[self.netlist.movable_indices] = y[: self.n_movable]
        out.reset_fixed()
        return out

    def forces_to_vars(self, fx_cells, fy_cells):
        return np.asarray(fx_cells, dtype=np.float64).copy(), np.asarray(
            fy_cells, dtype=np.float64
        ).copy()

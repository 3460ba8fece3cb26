"""The quadratic wire-length system of Section 2.

Nets are expanded into springs between cell centers (plus pin offsets):

* **Clique** (the paper's model): a ``k``-pin net becomes ``k(k-1)/2`` edges
  of weight ``w_net / k``.
* **Star** (sparsity fallback for high fan-out nets): one auxiliary movable
  vertex connected to every pin with weight ``w_net``.  Eliminating the star
  vertex algebraically recovers exactly the clique above, so the model switch
  does not change the optimum — only the matrix size/sparsity trade-off.

The equilibrium condition ``C p + d + e = 0`` (Eq. 3) is assembled here in
the equivalent form ``A x = b + f`` per axis, where ``A`` is symmetric
positive (semi-)definite, ``b`` collects fixed-cell and pin-offset terms and
``f`` holds the additional forces.  A tiny center anchor keeps ``A``
strictly SPD for netlists without fixed cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..netlist import Netlist, Placement
from .solver import ShiftedOperator


@dataclass
class AssembledSystem:
    """One placement transformation's linear systems (both axes).

    ``diag_positions`` (when the builder knows it) locates the stored
    diagonal inside the matrices' shared CSR data array, letting
    :meth:`shifted_x` / :meth:`shifted_y` produce ``A + shift·I`` without
    any structural sparse work.  Each shifted call per axis reuses one
    buffer, so consume a shifted matrix before requesting the next one for
    the same axis.
    """

    Ax: sp.csr_matrix
    bx: np.ndarray
    Ay: sp.csr_matrix
    by: np.ndarray
    diag_positions: Optional[np.ndarray] = None

    @property
    def n_vars(self) -> int:
        return self.Ax.shape[0]

    def shifted_x(self, shift: float) -> sp.csr_matrix:
        if not hasattr(self, "_op_x"):
            self._op_x = ShiftedOperator(self.Ax, self.diag_positions)
        return self._op_x.shifted(shift)

    def shifted_y(self, shift: float) -> sp.csr_matrix:
        if not hasattr(self, "_op_y"):
            self._op_y = ShiftedOperator(self.Ay, self.diag_positions)
        return self._op_y.shifted(shift)


class QuadraticSystem:
    """Sparse-system builder for a fixed netlist.

    Edge structure (which cells connect to which) is precomputed once; only
    the per-net weights change between placement transformations, so
    :meth:`assemble` is a cheap vectorized pass.
    """

    def __init__(self, netlist: Netlist, clique_threshold: int = 20):
        if clique_threshold < 2:
            raise ValueError("clique_threshold must be at least 2")
        self.netlist = netlist
        self.clique_threshold = clique_threshold

        # Variable layout: movable cells first, then star vertices.
        self.n_movable = netlist.num_movable
        self._var_of_cell = np.full(netlist.num_cells, -1, dtype=np.int64)
        self._var_of_cell[netlist.movable_indices] = np.arange(self.n_movable)

        self._star_nets: List[int] = []
        # Assembly scratch, reused across transformations: unit runtime
        # weights and the scatter-value buffer of _assemble_axis.  Both are
        # value-for-value what the per-call allocations held, so reuse is
        # bit-identical.
        self._unit_weights: Optional[np.ndarray] = None
        self._vals_buf: Optional[np.ndarray] = None
        self._build_edges()

    # ------------------------------------------------------------------
    # Edge extraction
    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        """Expand all nets into edge arrays in one vectorized pass.

        The historical implementation walked ``net.pins`` in nested Python
        loops (the dominant cost of constructing a placer at 100k+ cells).
        This version gathers pins from the flat CSR pin arrays and expands
        clique pairs per degree bucket.  Edge *order* is preserved exactly
        — nets in index order, pairs in the double-loop's (i, j) order,
        star pins in pin order — because :meth:`_assemble_axis` reduces
        duplicates with ``bincount``, whose within-slot summation order
        follows entry order; any reordering would perturb the last bits of
        the assembled matrices and break the pinned determinism hashes.
        """
        nl = self.netlist
        degree = nl.net_degree
        net_start = nl.net_ptr
        pin_cell, pin_dx, pin_dy = nl.pin_cell, nl.pin_dx, nl.pin_dy
        net_weight = nl.net_weight
        var = self._var_of_cell

        star_nets = np.flatnonzero(degree > self.clique_threshold)
        self._star_nets = [int(j) for j in star_nets]
        self.n_stars = int(star_nets.size)
        self.n_vars = self.n_movable + self.n_stars
        self._star_pin_cells = [
            [int(c) for c in pin_cell[net_start[j]:net_start[j + 1]]]
            for j in star_nets
        ]

        # --- clique nets: per-degree-bucket pair expansion -------------
        clique_nets = np.flatnonzero(
            (degree >= 2) & (degree <= self.clique_threshold)
        )
        parts: List[Tuple[np.ndarray, ...]] = []
        for d in np.unique(degree[clique_nets]) if clique_nets.size else []:
            nets_d = clique_nets[degree[clique_nets] == d]
            offs = net_start[nets_d][:, None] + np.arange(int(d))[None, :]
            P = pin_cell[offs]
            DX = pin_dx[offs]
            DY = pin_dy[offs]
            iu, jv = np.triu_indices(int(d), 1)  # row-major (i, j) order
            parts.append((
                np.repeat(nets_d, iu.size),
                np.repeat(net_weight[nets_d] / int(d), iu.size),
                P[:, iu].ravel(), P[:, jv].ravel(),
                DX[:, iu].ravel(), DX[:, jv].ravel(),
                DY[:, iu].ravel(), DY[:, jv].ravel(),
            ))
        if parts:
            c_net, c_w, ca, cb, adx, bdx, ady, bdy = (
                np.concatenate(cols) for cols in zip(*parts)
            )
            order = np.argsort(c_net, kind="stable")  # back to net order
            c_net, c_w = c_net[order], c_w[order]
            ca, cb = ca[order], cb[order]
            adx, bdx, ady, bdy = adx[order], bdx[order], ady[order], bdy[order]
        else:
            c_net = ca = cb = np.zeros(0, dtype=np.int64)
            c_w = adx = bdx = ady = bdy = np.zeros(0)
        ua, ub = var[ca], var[cb]
        both = (ua >= 0) & (ub >= 0)
        a_only = (ua >= 0) & (ub < 0)
        b_only = (ua < 0) & (ub >= 0)

        cmm = (ua[both], ub[both], c_net[both], c_w[both],
               adx[both] - bdx[both], ady[both] - bdy[both])
        # One-fixed pairs interleave (a-movable and b-movable cases) in
        # pair order within each net; a rank key restores that interleave
        # after the masked splits below.
        rank = np.arange(c_net.size, dtype=np.int64)
        mf_rank = np.concatenate((rank[a_only], rank[b_only]))
        cmf = (
            np.concatenate((ua[a_only], ub[b_only])),
            np.concatenate((c_net[a_only], c_net[b_only])),
            np.concatenate((c_w[a_only], c_w[b_only])),
            np.concatenate((
                (nl.fixed_x[cb[a_only]] + bdx[a_only]) - adx[a_only],
                (nl.fixed_x[ca[b_only]] + adx[b_only]) - bdx[b_only],
            )),
            np.concatenate((
                (nl.fixed_y[cb[a_only]] + bdy[a_only]) - ady[a_only],
                (nl.fixed_y[ca[b_only]] + ady[b_only]) - bdy[b_only],
            )),
        )
        mf_order = np.argsort(mf_rank, kind="stable")
        cmf = tuple(col[mf_order] for col in cmf)

        # --- star nets: auxiliary vertex <-> every pin, weight w -------
        if star_nets.size:
            s_pin = np.concatenate([
                np.arange(net_start[j], net_start[j + 1]) for j in star_nets
            ])
            s_count = degree[star_nets]
            s_net = np.repeat(star_nets, s_count)
            s_w = np.repeat(net_weight[star_nets], s_count)
            s_star = np.repeat(
                self.n_movable + np.arange(self.n_stars, dtype=np.int64),
                s_count,
            )
            s_cell = pin_cell[s_pin]
            s_dx, s_dy = pin_dx[s_pin], pin_dy[s_pin]
            s_u = var[s_cell]
            s_mov = s_u >= 0
            s_fix = ~s_mov
            smm = (s_u[s_mov], s_star[s_mov], s_net[s_mov], s_w[s_mov],
                   s_dx[s_mov], s_dy[s_mov])
            smf = (s_star[s_fix], s_net[s_fix], s_w[s_fix],
                   nl.fixed_x[s_cell[s_fix]] + s_dx[s_fix],
                   nl.fixed_y[s_cell[s_fix]] + s_dy[s_fix])
        else:
            smm = tuple(
                np.zeros(0, dtype=a.dtype) for a in cmm
            )
            smf = tuple(np.zeros(0, dtype=a.dtype) for a in cmf)

        # --- merge clique + star blocks back into global net order -----
        # Each net contributes to exactly one block and both blocks are
        # already net-sorted, so one stable sort over the concatenated net
        # column reproduces the serial append order exactly.
        def _merge(block_a, block_b, net_col):
            cols = [np.concatenate((a, b)) for a, b in zip(block_a, block_b)]
            order = np.argsort(cols[net_col], kind="stable")
            return [col[order] for col in cols]

        mm_u, mm_v, mm_net, mm_w, mm_offx, mm_offy = _merge(cmm, smm, 2)
        mf_u, mf_net, mf_w, mf_qx, mf_qy = _merge(cmf, smf, 1)

        self.mm_u = mm_u.astype(np.int64, copy=False)
        self.mm_v = mm_v.astype(np.int64, copy=False)
        self.mm_net = mm_net.astype(np.int64, copy=False)
        self.mm_w = mm_w.astype(np.float64, copy=False)
        self.mm_offx = mm_offx.astype(np.float64, copy=False)
        self.mm_offy = mm_offy.astype(np.float64, copy=False)
        self.mf_u = mf_u.astype(np.int64, copy=False)
        self.mf_net = mf_net.astype(np.int64, copy=False)
        self.mf_w = mf_w.astype(np.float64, copy=False)
        self.mf_qx = mf_qx.astype(np.float64, copy=False)
        self.mf_qy = mf_qy.astype(np.float64, copy=False)
        self._build_pattern()

    def _build_pattern(self) -> None:
        """Precompute the CSR sparsity pattern shared by every assembly.

        The edge structure is placement-independent, so the matrix pattern
        — including an explicitly stored diagonal for the anchor and for
        diagonal-shift reuse — never changes between transformations.  We
        sort the COO entry list once and keep the scatter map from entry
        to unique CSR slot; :meth:`_assemble_axis` then reduces fresh values
        into the fixed pattern with a single ``bincount``.

        Entries sort on the combined key ``row * n_vars + col`` (no
        overflow: both are ``< n_vars`` and ``n_vars**2`` fits int64 for
        any netlist we can hold in memory).  A stable argsort of the key
        yields exactly ``np.lexsort((cols, rows))`` — the historical
        implementation — but one radix pass over one array instead of two
        over two, and the row/col concatenations never materialize.  At
        1M cells this halves placer-construction time (the dominant cost
        of a cold V-cycle level setup).
        """
        n = self.n_vars
        base = np.int64(n)
        m = self.mm_u.size
        k = self.mf_u.size
        total = 4 * m + k + n
        key = np.empty(total, dtype=np.int64)
        # Block layout mirrors _assemble_axis's value buffer:
        # (u,u), (v,v), (u,v), (v,u), (mf_u,mf_u), then the full diagonal.
        np.multiply(self.mm_u, base, out=key[:m])
        key[:m] += self.mm_u
        np.multiply(self.mm_v, base, out=key[m:2 * m])
        key[m:2 * m] += self.mm_v
        np.multiply(self.mm_u, base, out=key[2 * m:3 * m])
        key[2 * m:3 * m] += self.mm_v
        np.multiply(self.mm_v, base, out=key[3 * m:4 * m])
        key[3 * m:4 * m] += self.mm_u
        np.multiply(self.mf_u, base, out=key[4 * m:4 * m + k])
        key[4 * m:4 * m + k] += self.mf_u
        key[4 * m + k:] = np.arange(n, dtype=np.int64) * (base + 1)
        order = np.argsort(key, kind="stable")
        k_sorted = key[order]
        first = np.ones(k_sorted.size, dtype=bool)
        first[1:] = k_sorted[1:] != k_sorted[:-1]
        slot_of_sorted = np.cumsum(first) - 1
        inv = np.empty(total, dtype=np.int64)
        inv[order] = slot_of_sorted
        nnz = int(slot_of_sorted[-1]) + 1 if total else 0
        idx_dtype = np.int32 if max(nnz, n) < np.iinfo(np.int32).max else np.int64
        uniq = k_sorted[first]
        unique_rows = uniq // base if n else uniq
        self._pat_inv = inv
        self._pat_nnz = nnz
        self._pat_indices = (uniq - unique_rows * base).astype(idx_dtype)
        counts = np.bincount(unique_rows, minlength=n)
        self._pat_indptr = np.concatenate(
            [[0], np.cumsum(counts)]
        ).astype(idx_dtype)
        self._pat_diag = np.flatnonzero(self._pat_indices == unique_rows)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def assemble(
        self,
        net_weights: Optional[np.ndarray] = None,
        lin_x: Optional[np.ndarray] = None,
        lin_y: Optional[np.ndarray] = None,
        anchor_weight: float = 0.0,
        anchor_xy: Tuple[float, float] = (0.0, 0.0),
    ) -> AssembledSystem:
        """Build ``A x = b`` for both axes.

        ``net_weights`` are runtime multipliers per net (timing weights);
        ``lin_x``/``lin_y`` are the per-axis linearization factors of [14].
        The anchor adds ``anchor_weight`` to every diagonal entry and pulls
        toward ``anchor_xy``.
        """
        num_nets = self.netlist.num_nets
        if net_weights is None:
            if self._unit_weights is None or self._unit_weights.size != num_nets:
                self._unit_weights = np.ones(num_nets)
            runtime = self._unit_weights
        else:
            runtime = np.asarray(net_weights)
        if runtime.shape != (num_nets,):
            raise ValueError("net_weights has wrong length")
        fx = runtime if lin_x is None else runtime * np.asarray(lin_x)
        fy = runtime if lin_y is None else runtime * np.asarray(lin_y)

        Ax, bx = self._assemble_axis(
            self.mm_w * fx[self.mm_net] if self.mm_w.size else self.mm_w,
            self.mf_w * fx[self.mf_net] if self.mf_w.size else self.mf_w,
            self.mm_offx,
            self.mf_qx,
            anchor_weight,
            anchor_xy[0],
        )
        Ay, by = self._assemble_axis(
            self.mm_w * fy[self.mm_net] if self.mm_w.size else self.mm_w,
            self.mf_w * fy[self.mf_net] if self.mf_w.size else self.mf_w,
            self.mm_offy,
            self.mf_qy,
            anchor_weight,
            anchor_xy[1],
        )
        return AssembledSystem(
            Ax=Ax, bx=bx, Ay=Ay, by=by, diag_positions=self._pat_diag
        )

    def _assemble_axis(
        self,
        w_mm: np.ndarray,
        w_mf: np.ndarray,
        off_mm: np.ndarray,
        q_mf: np.ndarray,
        anchor_weight: float,
        anchor: float,
    ) -> Tuple[sp.csr_matrix, np.ndarray]:
        n = self.n_vars
        # Entry order must mirror _build_pattern's concatenation; bincount
        # reduces the duplicate entries into their precomputed CSR slots.
        # The value buffer is reused across calls (two axes x many
        # transformations) instead of concatenating fresh arrays each time.
        m = w_mm.size
        k = w_mf.size
        total = 4 * m + k + n
        vals = self._vals_buf
        if vals is None or vals.size != total:
            vals = self._vals_buf = np.empty(total)
        vals[:m] = w_mm
        vals[m:2 * m] = w_mm
        np.negative(w_mm, out=vals[2 * m:3 * m])
        vals[3 * m:4 * m] = vals[2 * m:3 * m]
        vals[4 * m:4 * m + k] = w_mf
        vals[4 * m + k:] = anchor_weight
        data = np.bincount(self._pat_inv, weights=vals, minlength=self._pat_nnz)
        A = sp.csr_matrix(
            (data, self._pat_indices, self._pat_indptr), shape=(n, n), copy=False
        )

        # edge cost w (x_u + a_u - x_v - a_v)^2 with off = a_u - a_v:
        #   d/dx_u = 0  =>  row u gains -w*off on the rhs, row v gains +w*off
        b = np.zeros(n)
        if self.mm_u.size:
            b += np.bincount(self.mm_u, weights=-w_mm * off_mm, minlength=n)
            b += np.bincount(self.mm_v, weights=w_mm * off_mm, minlength=n)
        # fixed edge cost w (x_u - q)^2  =>  row u gains +w*q
        if self.mf_u.size:
            b += np.bincount(self.mf_u, weights=w_mf * q_mf, minlength=n)
        if anchor_weight > 0.0:
            b += anchor_weight * anchor
        return A, b

    # ------------------------------------------------------------------
    # Variable-vector <-> placement conversion
    # ------------------------------------------------------------------
    def vars_from_placement(self, placement: Placement) -> Tuple[np.ndarray, np.ndarray]:
        """Initial variable vectors (movable cells + star centroids)."""
        nl = self.netlist
        x = np.empty(self.n_vars)
        y = np.empty(self.n_vars)
        x[: self.n_movable] = placement.x[nl.movable_indices]
        y[: self.n_movable] = placement.y[nl.movable_indices]
        for s, cells in enumerate(self._star_pin_cells):
            x[self.n_movable + s] = float(np.mean(placement.x[cells]))
            y[self.n_movable + s] = float(np.mean(placement.y[cells]))
        return x, y

    def placement_from_vars(
        self, x: np.ndarray, y: np.ndarray, template: Placement
    ) -> Placement:
        """New placement with movable coordinates taken from the solution."""
        out = template.copy()
        out.x[self.netlist.movable_indices] = x[: self.n_movable]
        out.y[self.netlist.movable_indices] = y[: self.n_movable]
        out.reset_fixed()
        return out

    def forces_to_vars(self, fx_cells: np.ndarray, fy_cells: np.ndarray):
        """Expand per-movable-cell forces to the variable vector (stars get 0)."""
        fx = np.zeros(self.n_vars)
        fy = np.zeros(self.n_vars)
        fx[: self.n_movable] = fx_cells
        fy[: self.n_movable] = fy_cells
        return fx, fy

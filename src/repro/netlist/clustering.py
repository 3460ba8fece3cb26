"""Connectivity-based netlist clustering (coarsening).

Heavy-edge matching over the clique-expanded connectivity graph: pairs of
movable cells with the strongest total connection weight merge into cluster
cells.  Applied once or twice, this shrinks a netlist ~2x per pass while
preserving its placement structure — the substrate for the multilevel
placement flow in :mod:`repro.core.multilevel`.

Fixed cells are never clustered.  Cluster cells keep row height and absorb
their members' width, area, power; member offsets inside a cluster are zero
by default (members land on the cluster center when the placement is
expanded; ``expand(..., spread=True)`` lays them side by side instead so
refinement starts from a low-overlap state).

The pair extraction, weight accumulation and net collapse are vectorized
over the flat CSR pin arrays — the historical per-net Python loops were the
dominant cost of a 100k-cell V-cycle.  :func:`cluster_netlist` reproduces
the scalar implementation's output exactly (same merge order, same coarse
netlist); :func:`cluster_netlist_multi` coarsens several levels in one pass
by remapping the finest level's pair table instead of re-extracting it from
every coarse netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .builder import NetlistBuilder
from .cell import CELL_KINDS, CellKind
from .netlist import Netlist
from .placement import Placement


@dataclass
class Clustering:
    """A coarsened netlist plus the member mapping."""

    coarse: Netlist
    # original cell index -> coarse cell index
    map_to_coarse: np.ndarray
    original: Netlist

    @property
    def ratio(self) -> float:
        return self.original.num_cells / self.coarse.num_cells

    def expand(
        self, coarse_placement: Placement, spread: bool = False
    ) -> Placement:
        """Original-netlist placement from a coarse placement.

        By default every member lands on its cluster center.  With
        ``spread=True`` the members of each cluster are laid out side by
        side around the center (in cell-index order, same row), which
        removes most intra-cluster overlap so a finer level's refinement
        starts from a nearly-spread state instead of stacked points.
        """
        x = coarse_placement.x[self.map_to_coarse]
        y = coarse_placement.y[self.map_to_coarse]
        if spread:
            nl = self.original
            mov = nl.movable_indices
            order = np.argsort(
                self.map_to_coarse[mov], kind="stable"
            )
            mov = mov[order]
            grp = self.map_to_coarse[mov]
            w = nl.widths[mov]
            csum = np.cumsum(w)
            starts = np.flatnonzero(np.r_[True, grp[1:] != grp[:-1]])
            bounds = np.r_[starts, grp.size]
            sizes = np.diff(bounds)
            # left edge of each member inside its cluster strip
            base = csum[starts] - w[starts]
            left = csum - w - np.repeat(base, sizes)
            total = np.repeat(csum[bounds[1:] - 1] - base, sizes)
            x[mov] += left + 0.5 * w - 0.5 * total
        placement = Placement(self.original, x, y)
        placement.reset_fixed()
        return placement


# ----------------------------------------------------------------------
# Pair extraction and accumulation
# ----------------------------------------------------------------------
def _dedupe_pairs(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, num_cells: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum duplicate pairs, output in first-encounter order.

    Reproduces the scalar dict semantics exactly: duplicates accumulate in
    encounter order (bincount sums in input order within a slot) and the
    output order is the dict's insertion order.
    """
    if a.size == 0:
        e = np.zeros(0, dtype=np.int64)
        return e, e.copy(), np.zeros(0)
    keys = a.astype(np.int64) * np.int64(num_cells) + b.astype(np.int64)
    uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    wsum = np.bincount(inv, weights=w, minlength=uniq.size)
    ins = np.argsort(first, kind="stable")  # dict insertion order
    k = uniq[ins]
    return k // num_cells, k % num_cells, wsum[ins]


def _accumulate_pairs(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, num_cells: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum duplicate pairs and order by descending weight.

    Ties in the descending-weight sort break by first-encounter order —
    the scalar ``sorted(weights.items(), key=lambda kv: -kv[1])`` under
    Python's stable sort."""
    a, b, w = _dedupe_pairs(a, b, w, num_cells)
    final = np.argsort(-w, kind="stable")
    return a[final], b[final], w[final]


def _pair_table(
    netlist: Netlist, max_degree: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise clique weights between movable cells (small nets only),
    ordered by descending weight — the heavy-edge match order."""
    degree = netlist.net_degree
    nets = np.flatnonzero((degree >= 2) & (degree <= max_degree))
    movable = netlist.movable_mask
    parts = []
    for d in (np.unique(degree[nets]) if nets.size else []):
        nets_d = nets[degree[nets] == d]
        offs = netlist.net_ptr[nets_d][:, None] + np.arange(int(d))[None, :]
        S = np.sort(netlist.pin_cell[offs], axis=1)
        valid = movable[S]
        valid[:, 1:] &= S[:, 1:] != S[:, :-1]  # drop duplicate pins
        iu, jv = np.triu_indices(int(d), 1)
        mask = (valid[:, iu] & valid[:, jv]).ravel()
        parts.append((
            S[:, iu].ravel()[mask],
            S[:, jv].ravel()[mask],
            np.repeat(nets_d, iu.size)[mask],
            np.repeat(netlist.net_weight[nets_d] / int(d), iu.size)[mask],
        ))
    if not parts:
        e = np.zeros(0, dtype=np.int64)
        return e, e.copy(), np.zeros(0)
    a, b, net_idx, w = (np.concatenate(cols) for cols in zip(*parts))
    order = np.argsort(net_idx, kind="stable")  # net order = dict order
    return a[order], b[order], w[order]


# ----------------------------------------------------------------------
# Matching and coarse-netlist construction
# ----------------------------------------------------------------------
def _match(
    netlist: Netlist,
    a: np.ndarray,
    b: np.ndarray,
    max_cluster_area: Optional[float],
) -> np.ndarray:
    """Greedy union-find matching over the ordered pair list.

    Returns the fully-flattened parent array (every cell points directly
    at its cluster root).
    """
    parent = list(range(netlist.num_cells))
    area = netlist.areas.tolist()
    cap = max_cluster_area

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    for pa, pb in zip(a.tolist(), b.tolist()):
        ra, rb = find(pa), find(pb)
        if ra == rb:
            continue
        if cap and area[ra] + area[rb] > cap:
            continue
        parent[rb] = ra
        area[ra] += area[rb]
    for i in range(netlist.num_cells):
        find(i)
    return np.asarray(parent, dtype=np.int64)


def _build_coarse(netlist: Netlist, parent: np.ndarray) -> Clustering:
    """Build the coarse netlist for a flattened parent array."""
    nl = netlist
    num_cells = nl.num_cells
    root_area = np.bincount(parent, weights=nl.areas, minlength=num_cells)
    root_power = np.bincount(parent, weights=nl.powers, minlength=num_cells)

    # Coarse cells: fixed cells first (original order), then cluster
    # representatives (original index order) — the historical builder order.
    builder = NetlistBuilder(nl.name + "+coarse")
    reps = np.flatnonzero(nl.movable_mask & (parent == np.arange(num_cells)))
    order = np.concatenate((nl.fixed_indices, reps))
    coarse_of = np.full(num_cells, -1, dtype=np.int64)
    coarse_of[order] = np.arange(order.size)
    for i in nl.fixed_indices.tolist():
        builder.cell(
            nl.cell_names[i], float(nl.widths[i]), float(nl.heights[i]),
            CELL_KINDS[nl.kinds[i]], True, float(nl.cell_x[i]),
            float(nl.cell_y[i]), float(nl.delays[i]), float(nl.input_caps[i]),
            float(nl.powers[i]), bool(nl.register_mask[i]),
        )
    blocks = nl.kind_mask(CellKind.BLOCK)
    for i, height, area, power, delay, block in zip(
        reps.tolist(), nl.heights[reps].tolist(), root_area[reps].tolist(),
        root_power[reps].tolist(), nl.delays[reps].tolist(),
        blocks[reps].tolist(),
    ):
        builder.cell(
            nl.cell_names[i], area / height, height,
            CellKind.BLOCK if block else CellKind.STANDARD,
            delay=delay, power=power,
        )
    # Members inherit their root's coarse index in one gather (fixed cells
    # and representatives map to themselves: parent[i] == i for both).
    coarse_of = coarse_of[parent]
    num_coarse = order.size

    # Nets: collapse pins to clusters, dedupe (keeping each target's first
    # pin), drop degenerate nets, demote extra drivers — all vectorized.
    if nl.num_pins:
        target = coarse_of[nl.pin_cell]
        net_of_pin = np.repeat(
            np.arange(nl.num_nets, dtype=np.int64), nl.net_degree
        )
        key = net_of_pin * np.int64(num_coarse) + target
        _, first = np.unique(key, return_index=True)
        kept = np.sort(first)  # first occurrences, net-major in pin order
        knet = net_of_pin[kept]
        counts = np.bincount(knet, minlength=nl.num_nets)
        alive = counts[knet] >= 2
        kept, knet = kept[alive], knet[alive]
    else:
        kept = knet = np.zeros(0, dtype=np.int64)
    ktarget = coarse_of[nl.pin_cell[kept]] if kept.size else kept

    if kept.size:
        is_out = nl.pin_dir[kept] == 1
        starts = np.flatnonzero(np.r_[True, knet[1:] != knet[:-1]])
        bounds = np.r_[starts, knet.size]
        # Collapsing can merge several drivers into one net; keep the
        # first as the driver and demote the rest.
        c = np.cumsum(is_out)
        seg_base = c[starts] - is_out[starts]
        rank = c - np.repeat(seg_base, np.diff(bounds))
        keep_out = (is_out & (rank == 1)).astype(np.int8).tolist()
        cells = ktarget.tolist()
        bounds = bounds.tolist()
        for si, j in enumerate(knet[starts].tolist()):
            lo, hi = bounds[si], bounds[si + 1]
            zeros = [0.0] * (hi - lo)
            builder.net(
                nl.net_names[j], float(nl.net_weight[j]), cells[lo:hi],
                keep_out[lo:hi], zeros, zeros,
            )

    return Clustering(
        coarse=builder.build(), map_to_coarse=coarse_of, original=netlist
    )


def cluster_netlist(
    netlist: Netlist,
    max_cluster_area: Optional[float] = None,
    max_net_degree: int = 10,
) -> Clustering:
    """One pass of heavy-edge matching (~2x coarsening).

    ``max_cluster_area`` caps merged cell area (default: 8x the average
    movable cell) so clusters stay placeable.
    """
    if max_cluster_area is None and netlist.num_movable:
        max_cluster_area = 8.0 * netlist.average_movable_area()
    a, b, _w = _accumulate_pairs(
        *_pair_table(netlist, max_net_degree), netlist.num_cells
    )
    parent = _match(netlist, a, b, max_cluster_area)
    return _build_coarse(netlist, parent)


def cluster_netlist_multi(
    netlist: Netlist,
    levels: int,
    max_net_degree: int = 10,
) -> List[Clustering]:
    """Coarsen ``levels`` times in a single pass.

    The pair table is extracted once from the finest netlist; deeper levels
    remap it through the latest clustering (pairs whose endpoints merged
    collapse onto the cluster pair, weights accumulate) instead of
    re-walking every coarse net.  The first level is identical to
    :func:`cluster_netlist`; deeper levels use the remapped weights, which
    approximate the coarse clique weights without the per-level extraction
    cost.  Stops early when a pass no longer shrinks the netlist.
    """
    clusterings: List[Clustering] = []
    current = netlist
    a, b, w = _accumulate_pairs(
        *_pair_table(netlist, max_net_degree), netlist.num_cells
    )
    for _ in range(levels):
        cap = (
            8.0 * current.average_movable_area()
            if current.num_movable else None
        )
        parent = _match(current, a, b, cap)
        clustering = _build_coarse(current, parent)
        if clustering.coarse.num_movable >= current.num_movable:
            break
        clusterings.append(clustering)
        ca = clustering.map_to_coarse[a]
        cb = clustering.map_to_coarse[b]
        keep = ca != cb
        lo = np.minimum(ca[keep], cb[keep])
        hi = np.maximum(ca[keep], cb[keep])
        a, b, w = _accumulate_pairs(
            lo, hi, w[keep], clustering.coarse.num_cells
        )
        current = clustering.coarse
    return clusterings

"""Wire-length metrics.

The paper measures wire length as the *half perimeter of the enclosing
rectangle* (HPWL) summed over all nets, reported in meters.  The quadratic
engine internally optimizes squared Euclidean clique length; both metrics are
provided here, vectorized over the whole netlist.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..netlist import Placement

MICRONS_PER_METER = 1.0e6


def net_hpwl(placement: Placement) -> np.ndarray:
    """Half-perimeter wire length of every net, in microns."""
    nl = placement.netlist
    if nl.num_pins == 0:
        return np.zeros(nl.num_nets)
    px, py = placement.pin_coords()
    seg = nl.net_ptr[:-1]
    dx = np.maximum.reduceat(px, seg) - np.minimum.reduceat(px, seg)
    dy = np.maximum.reduceat(py, seg) - np.minimum.reduceat(py, seg)
    return dx + dy


def hpwl(placement: Placement, weights: Optional[np.ndarray] = None) -> float:
    """Total (optionally weighted) HPWL in microns."""
    lengths = net_hpwl(placement)
    if weights is None:
        return float(lengths.sum())
    if len(weights) != len(lengths):
        raise ValueError("weight array does not match net count")
    return float((lengths * weights).sum())


def hpwl_meters(placement: Placement) -> float:
    """Total HPWL converted to meters (the paper's Table 1 unit)."""
    return hpwl(placement) / MICRONS_PER_METER


def quadratic_wirelength(placement: Placement) -> float:
    """Sum over nets of the clique squared-distance cost (Section 2.1).

    For each ``k``-pin net the clique contributes
    ``(1/k) * sum_{i<j} (d_ij_x^2 + d_ij_y^2)``, which equals
    ``sum(x^2) - k*mean(x)^2`` per axis — computed that way to stay O(pins).
    """
    nl = placement.netlist
    if nl.num_pins == 0:
        return 0.0
    px, py = placement.pin_coords()
    seg = nl.net_ptr[:-1]
    k = nl.net_degree.astype(np.float64)
    total = 0.0
    for coords in (px, py):
        s1 = np.add.reduceat(coords, seg)
        s2 = np.add.reduceat(coords * coords, seg)
        # (1/k) * sum_{i<j} (c_i - c_j)^2 == s2 - s1^2 / k
        per_net = s2 - (s1 * s1) / k
        total += float(per_net.sum())
    return total


def net_mst_length(placement: Placement, max_degree: int = 64) -> np.ndarray:
    """Per-net rectilinear minimum spanning tree length (microns).

    A tighter routed-length estimate than HPWL (exact for 2-3 pins, within
    1.5x of the Steiner optimum in general).  Prim's algorithm on Manhattan
    distances, O(k^2) per net; nets above ``max_degree`` fall back to HPWL.
    """
    nl = placement.netlist
    out = np.zeros(nl.num_nets)
    if nl.num_pins == 0:
        return out
    px, py = placement.pin_coords()
    hp = net_hpwl(placement)
    starts = nl.net_ptr
    for j in range(placement.netlist.num_nets):
        lo, hi = int(starts[j]), int(starts[j + 1])
        k = hi - lo
        if k < 2:
            continue
        if k > max_degree:
            out[j] = hp[j]
            continue
        xs = px[lo:hi]
        ys = py[lo:hi]
        in_tree = np.zeros(k, dtype=bool)
        in_tree[0] = True
        dist = np.abs(xs - xs[0]) + np.abs(ys - ys[0])
        total = 0.0
        for _ in range(k - 1):
            dist_masked = np.where(in_tree, np.inf, dist)
            nxt = int(np.argmin(dist_masked))
            total += float(dist_masked[nxt])
            in_tree[nxt] = True
            cand = np.abs(xs - xs[nxt]) + np.abs(ys - ys[nxt])
            dist = np.minimum(dist, cand)
        out[j] = total
    return out


def mst_wirelength(placement: Placement) -> float:
    """Total rectilinear MST length in microns."""
    return float(net_mst_length(placement).sum())


def net_bounding_boxes(placement: Placement) -> np.ndarray:
    """Per-net (xlo, ylo, xhi, yhi); shape ``(num_nets, 4)``."""
    px, py = placement.pin_coords()
    seg = placement.netlist.net_ptr[:-1]
    out = np.empty((placement.netlist.num_nets, 4))
    out[:, 0] = np.minimum.reduceat(px, seg)
    out[:, 1] = np.minimum.reduceat(py, seg)
    out[:, 2] = np.maximum.reduceat(px, seg)
    out[:, 3] = np.maximum.reduceat(py, seg)
    return out

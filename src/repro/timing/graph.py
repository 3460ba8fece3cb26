"""The timing graph: a levelized DAG over cells for longest-path analysis.

Construction rules
------------------
* Every net with a driver (OUTPUT pin) contributes timing arcs from the
  driving cell to each sink cell.
* Registers and fixed cells (pads) are *timing boundaries*: a register/pad
  output starts a path, a register/pad input ends one.  Arcs into a boundary
  are kept (they finish paths) but never constrain the topological order,
  because a boundary's output arrival does not depend on its inputs.
* Nets with more pins than ``max_timing_degree`` are ignored, following
  Section 6.2 ("since having big nets in the longest path is not realistic
  we disregard nets with more than 60 pins for timing analysis").
* Residual combinational cycles (synthetic or real netlists can contain
  them) are broken deterministically: a Kahn topological sort runs until it
  stalls, then the stalled node with the smallest index has its remaining
  in-arcs dropped, and the sort continues.  Dropped arcs are reported in
  ``broken_arcs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..netlist import Netlist

DEFAULT_MAX_TIMING_DEGREE = 60


@dataclass(frozen=True)
class TimingArc:
    """One driver→sink arc, remembering the net that carries it."""

    src: int  # driving cell index
    dst: int  # sink cell index
    net: int  # net index


@dataclass
class TimingGraph:
    """Levelized combinational timing structure of a netlist."""

    netlist: Netlist
    arcs: List[TimingArc]
    topo_order: List[int]  # cell indices, every arc src before its dst
    sources: List[int]  # boundary cells that drive arcs
    endpoints: List[int]  # boundary cells that receive arcs
    broken_arcs: List[TimingArc] = field(default_factory=list)
    max_timing_degree: int = DEFAULT_MAX_TIMING_DEGREE

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def arc_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, net) index arrays for vectorized propagation."""
        if not self.arcs:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        src = np.array([a.src for a in self.arcs], dtype=np.int64)
        dst = np.array([a.dst for a in self.arcs], dtype=np.int64)
        net = np.array([a.net for a in self.arcs], dtype=np.int64)
        return src, dst, net


def build_timing_graph(
    netlist: Netlist, max_timing_degree: int = DEFAULT_MAX_TIMING_DEGREE
) -> TimingGraph:
    """Extract the combinational timing DAG of a netlist."""
    raw_arcs: List[TimingArc] = []
    ptr = netlist.net_ptr.tolist()
    pin_cell, pin_dir = netlist.pin_cell.tolist(), netlist.pin_dir.tolist()
    for j in range(netlist.num_nets):
        pins = range(ptr[j], ptr[j + 1])
        if len(pins) > max_timing_degree:
            continue
        driver = next((pin_cell[p] for p in pins if pin_dir[p]), None)
        if driver is None:
            continue
        for p in pins:
            if pin_dir[p] or pin_cell[p] == driver:
                continue
            raw_arcs.append(TimingArc(src=driver, dst=pin_cell[p], net=j))

    n = netlist.num_cells
    # Registers and fixed cells (pads) start and end timing paths.
    boundary = netlist.register_mask | netlist.fixed_mask
    out_arcs: List[List[int]] = [[] for _ in range(n)]
    in_arcs: List[List[int]] = [[] for _ in range(n)]
    in_degree = np.zeros(n, dtype=np.int64)
    for ai, arc in enumerate(raw_arcs):
        out_arcs[arc.src].append(ai)
        in_arcs[arc.dst].append(ai)
        if not boundary[arc.dst]:
            in_degree[arc.dst] += 1

    # Kahn topological sort with deterministic cycle breaking.
    dropped = set()
    placed = np.zeros(n, dtype=bool)
    queue: List[int] = sorted(
        i for i in range(n) if boundary[i] or in_degree[i] == 0
    )
    placed[queue] = True
    topo: List[int] = []
    pos = 0
    broken: List[TimingArc] = []
    while pos < len(queue) or not placed.all():
        if pos == len(queue):
            # Stalled on a cycle: free the smallest unplaced node.
            victim = int(np.flatnonzero(~placed)[0])
            for ai in in_arcs[victim]:
                if ai not in dropped and not placed[raw_arcs[ai].src]:
                    dropped.add(ai)
                    broken.append(raw_arcs[ai])
            placed[victim] = True
            queue.append(victim)
        u = queue[pos]
        pos += 1
        topo.append(u)
        for ai in out_arcs[u]:
            if ai in dropped:
                continue
            v = raw_arcs[ai].dst
            if boundary[v] or placed[v]:
                continue
            in_degree[v] -= 1
            if in_degree[v] == 0:
                placed[v] = True
                queue.append(v)

    kept = [a for ai, a in enumerate(raw_arcs) if ai not in dropped]
    drives = np.zeros(n, dtype=bool)
    receives = np.zeros(n, dtype=bool)
    for arc in kept:
        drives[arc.src] = True
        receives[arc.dst] = True
    sources = [i for i in range(n) if boundary[i] and drives[i]]
    endpoints = [i for i in range(n) if boundary[i] and receives[i]]
    return TimingGraph(
        netlist=netlist,
        arcs=kept,
        topo_order=topo,
        sources=sources,
        endpoints=endpoints,
        broken_arcs=broken,
        max_timing_degree=max_timing_degree,
    )

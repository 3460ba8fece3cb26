"""Static timing analysis: longest path, slacks, critical path.

Implements the longest-path search the paper runs before every placement
transformation (Section 5): arrival times propagate forward through the
timing DAG using placement-dependent Elmore net delays; required times
propagate backward from a timing requirement (default: the longest-path
delay itself, making the worst slack zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..netlist import Netlist, Placement
from .elmore import ElmoreModel, net_sink_capacitance
from .graph import TimingGraph, build_timing_graph

_NEG_INF = -1.0e30
_POS_INF = 1.0e30


@dataclass
class STAResult:
    """Timing state of one placement."""

    graph: TimingGraph
    net_delays_ns: np.ndarray  # per net
    arrival_out: np.ndarray  # per cell: time at cell output (ns)
    arrival_end: np.ndarray  # per cell: time at boundary inputs (endpoints)
    max_delay_ns: float  # longest path delay
    requirement_ns: float  # the requirement used for slacks
    net_slack_ns: np.ndarray  # per net: worst slack over its arcs
    critical_path: List[int]  # cell indices from source to worst endpoint

    def critical_nets(self, fraction: float = 0.03) -> np.ndarray:
        """Indices of the most critical nets (the paper's "3 percent").

        Only nets that actually carry timing arcs are eligible; among those,
        the ``fraction`` with the smallest slack are returned (at least one).
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        eligible = np.flatnonzero(self.net_slack_ns < _POS_INF / 2)
        if eligible.size == 0:
            return eligible
        count = max(1, int(round(fraction * eligible.size)))
        order = eligible[np.argsort(self.net_slack_ns[eligible], kind="stable")]
        return order[:count]

    @property
    def worst_slack_ns(self) -> float:
        finite = self.net_slack_ns[self.net_slack_ns < _POS_INF / 2]
        return float(finite.min()) if finite.size else 0.0


class StaticTimingAnalyzer:
    """Reusable analyzer: build the graph once, analyze many placements."""

    def __init__(
        self,
        netlist: Netlist,
        model: Optional[ElmoreModel] = None,
        max_timing_degree: int = 60,
        graph: Optional[TimingGraph] = None,
    ):
        self.netlist = netlist
        self.model = model or ElmoreModel()
        self.graph = graph or build_timing_graph(
            netlist, max_timing_degree=max_timing_degree
        )
        self._sink_caps = net_sink_capacitance(netlist)
        self._delays = np.array(netlist.delays)
        self._is_source = netlist.register_mask | netlist.fixed_mask
        # Arcs ordered so that every src appears in topological order.
        topo_pos = np.zeros(netlist.num_cells, dtype=np.int64)
        for pos, cell_index in enumerate(self.graph.topo_order):
            topo_pos[cell_index] = pos
        self._arc_order = sorted(
            range(len(self.graph.arcs)), key=lambda ai: topo_pos[self.graph.arcs[ai].src]
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def net_delays(self, placement: Placement) -> np.ndarray:
        """Per-net Elmore delay (ns) for the placement."""
        return self.model.net_delays_ns(placement, self._sink_caps)

    def zero_wire_delays(self) -> np.ndarray:
        """All-zero net delays — the paper's lower-bound configuration."""
        return np.zeros(self.netlist.num_nets)

    def analyze(
        self,
        placement: Optional[Placement] = None,
        net_delays_ns: Optional[np.ndarray] = None,
        requirement_ns: Optional[float] = None,
    ) -> STAResult:
        """Run STA using the placement's net delays (or explicit delays)."""
        if net_delays_ns is None:
            if placement is None:
                raise ValueError("need a placement or explicit net delays")
            net_delays_ns = self.net_delays(placement)
        n = self.netlist.num_cells
        arcs = self.graph.arcs
        arrival_in = np.full(n, _NEG_INF)
        arrival_end = np.full(n, _NEG_INF)
        arrival_out = np.where(self._is_source, self._delays, _NEG_INF)

        # Forward propagation in topological arc order.
        for ai in self._arc_order:
            arc = arcs[ai]
            src_out = self._resolve_out(arc.src, arrival_in, arrival_out)
            t = src_out + net_delays_ns[arc.net]
            if self._is_source[arc.dst]:
                if t > arrival_end[arc.dst]:
                    arrival_end[arc.dst] = t
            else:
                if t > arrival_in[arc.dst]:
                    arrival_in[arc.dst] = t

        for i in range(n):
            arrival_out[i] = self._resolve_out(i, arrival_in, arrival_out)

        if self.graph.endpoints:
            ends = arrival_end[self.graph.endpoints]
            max_delay = float(ends.max()) if ends.size else 0.0
        else:
            finite = arrival_out[arrival_out > _NEG_INF / 2]
            max_delay = float(finite.max()) if finite.size else 0.0
        requirement = max_delay if requirement_ns is None else requirement_ns

        net_slack = self._backward_slacks(net_delays_ns, arrival_in, arrival_out, requirement)
        critical = self._critical_path(net_delays_ns, arrival_in, arrival_out, arrival_end)
        return STAResult(
            graph=self.graph,
            net_delays_ns=net_delays_ns,
            arrival_out=arrival_out,
            arrival_end=arrival_end,
            max_delay_ns=max_delay,
            requirement_ns=requirement,
            net_slack_ns=net_slack,
            critical_path=critical,
        )

    def lower_bound_ns(self) -> float:
        """Longest path with all wire delays zero (Section 6.2's bound)."""
        return self.analyze(net_delays_ns=self.zero_wire_delays()).max_delay_ns

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_out(
        self, cell: int, arrival_in: np.ndarray, arrival_out: np.ndarray
    ) -> float:
        if self._is_source[cell]:
            return float(self._delays[cell])
        if arrival_in[cell] > _NEG_INF / 2:
            return float(arrival_in[cell] + self._delays[cell])
        # Combinational cell with no (kept) fan-in: starts a path itself.
        return float(self._delays[cell])

    def _backward_slacks(
        self,
        net_delays_ns: np.ndarray,
        arrival_in: np.ndarray,
        arrival_out: np.ndarray,
        requirement: float,
    ) -> np.ndarray:
        n = self.netlist.num_cells
        arcs = self.graph.arcs
        required_out = np.full(n, _POS_INF)
        net_slack = np.full(self.netlist.num_nets, _POS_INF)
        # Reverse topological arc order.
        for ai in reversed(self._arc_order):
            arc = arcs[ai]
            if self._is_source[arc.dst]:
                req_at_dst = requirement
            else:
                req_at_dst = required_out[arc.dst] - self._delays[arc.dst]
            req_src_out = req_at_dst - net_delays_ns[arc.net]
            if req_src_out < required_out[arc.src]:
                required_out[arc.src] = req_src_out
            slack = req_at_dst - (arrival_out[arc.src] + net_delays_ns[arc.net])
            if slack < net_slack[arc.net]:
                net_slack[arc.net] = slack
        return net_slack

    def _critical_path(
        self,
        net_delays_ns: np.ndarray,
        arrival_in: np.ndarray,
        arrival_out: np.ndarray,
        arrival_end: np.ndarray,
    ) -> List[int]:
        arcs = self.graph.arcs
        if not arcs:
            return []
        # Worst endpoint (or worst cell output if there are no endpoints).
        if self.graph.endpoints:
            end = max(self.graph.endpoints, key=lambda i: arrival_end[i])
            target_time = arrival_end[end]
            if target_time <= _NEG_INF / 2:
                return []
        else:
            end = int(np.argmax(arrival_out))
            target_time = arrival_out[end]
        path = [end]
        # Predecessor arcs by destination.
        by_dst: dict = {}
        for arc in arcs:
            by_dst.setdefault(arc.dst, []).append(arc)
        current = end
        expect = target_time
        guard = 0
        while guard < self.netlist.num_cells:
            guard += 1
            candidates = by_dst.get(current, [])
            best = None
            for arc in candidates:
                t = arrival_out[arc.src] + net_delays_ns[arc.net]
                if best is None or t > best[0]:
                    best = (t, arc)
            if best is None:
                break
            t, arc = best
            path.append(arc.src)
            if self._is_source[arc.src]:
                break
            current = arc.src
            expect = t - self._delays[arc.src]
        path.reverse()
        return path

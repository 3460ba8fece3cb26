"""Human-readable timing reports (the classic "report_timing" output)."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..evaluation.report import format_table
from ..netlist import Netlist, Placement
from .sta import STAResult, StaticTimingAnalyzer


def critical_path_report(
    analyzer: StaticTimingAnalyzer,
    sta: STAResult,
    max_rows: int = 30,
) -> str:
    """Stage-by-stage breakdown of the critical path.

    One row per cell on the path: the cell's own delay, the delay of the net
    it drives toward the next stage, and the cumulative arrival time.
    """
    nl = analyzer.netlist
    path = sta.critical_path
    if len(path) < 2:
        return "no critical path (empty timing graph)"
    arcs_by_pair = {
        (arc.src, arc.dst): arc for arc in analyzer.graph.arcs
    }
    rows: List[list] = []
    cumulative = 0.0
    for k, cell_index in enumerate(path):
        cell = nl.cells[cell_index]
        cell_delay = cell.delay
        net_delay = 0.0
        net_name = "-"
        if k + 1 < len(path):
            arc = arcs_by_pair.get((cell_index, path[k + 1]))
            if arc is not None:
                net_delay = float(sta.net_delays_ns[arc.net])
                net_name = nl.net_names[arc.net]
        # Boundary cells end the path: their own delay belongs to the next
        # stage, except at the source where clk-to-q starts the clock.
        if k == 0 or not (cell.is_register or cell.fixed):
            cumulative += cell_delay
        cumulative += net_delay
        rows.append([cell.name, cell_delay, net_name, net_delay, cumulative])
        if len(rows) >= max_rows:
            rows.append(["...", None, None, None, None])
            break
    return format_table(
        ["cell", "cell delay", "via net", "net delay", "arrival"],
        rows,
        title=(
            f"critical path: {sta.max_delay_ns:.3f} ns over "
            f"{len(path)} cells (requirement {sta.requirement_ns:.3f} ns)"
        ),
        float_digits=3,
    )


def slack_histogram(sta: STAResult, bins: int = 8) -> str:
    """Net-slack histogram — how much of the design is timing-critical."""
    finite = sta.net_slack_ns[sta.net_slack_ns < 1e29]
    if finite.size == 0:
        return "no timing arcs"
    lo, hi = float(finite.min()), float(finite.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(finite, bins=edges)
    width = 40
    peak = max(int(counts.max()), 1)
    lines = [f"net slack histogram ({finite.size} timed nets):"]
    for k in range(bins):
        bar = "#" * max(1, int(width * counts[k] / peak)) if counts[k] else ""
        lines.append(
            f"  [{edges[k]:8.3f}, {edges[k + 1]:8.3f}) {counts[k]:6d} {bar}"
        )
    return "\n".join(lines)


def timing_summary(
    netlist: Netlist,
    placement: Placement,
    analyzer: Optional[StaticTimingAnalyzer] = None,
) -> str:
    """One-call report: summary line, critical path, slack histogram."""
    analyzer = analyzer or StaticTimingAnalyzer(netlist)
    sta = analyzer.analyze(placement)
    bound = analyzer.lower_bound_ns()
    header = (
        f"design {netlist.name}: longest path {sta.max_delay_ns:.3f} ns, "
        f"zero-wire bound {bound:.3f} ns, worst slack "
        f"{sta.worst_slack_ns:.3f} ns"
    )
    return "\n\n".join(
        [header, critical_path_report(analyzer, sta), slack_histogram(sta)]
    )

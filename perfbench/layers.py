"""How the per-layer metrics are read from a traced run.

``BENCHMARK.json`` names the metrics; README.md maps each layer metric to
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from stats import median, percentile

#: Placer phases read from span totals, per design or per job.
CORE_SPANS = ("assemble", "hold", "solve", "poisson", "density", "expand", "stats")


def _span(op_spans: Optional[Dict[str, float]], name: str) -> float:
    return float((op_spans or {}).get(name, 0.0))


def job_layers(jobs: List[Dict[str, Any]], calls: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-job medians and count totals over pool jobs (batch-1k, serve-1k).

    Each job is ``{"seconds", "phases", "iterations", "trace"}``: the
    worker-side ``JobResult`` fields and its JSONL trace, which carries the
    ``cg_iterations`` counters the phase totals leave out.
    """
    from repro import read_trace_jsonl

    phases = [job["phases"] for job in jobs]
    layers = {
        "netlist.parse_s": median(calls.get("parse", [])),
        "core.setup_s": median(calls.get("setup", [])),
        "core.iterations": sum(job["iterations"] for job in jobs),
        "core.cg_iterations": sum(
            event.get("counters", {}).get("cg_iterations", 0.0)
            for job in jobs for event in read_trace_jsonl(job["trace"])
        ),
    }
    for name in CORE_SPANS:
        layers[f"core.{name}_s"] = median(p.get(name, 0.0) for p in phases)
    for name in ("snap", "improve"):
        layers[f"legalize.{name}_s"] = median(p.get(name, 0.0) for p in phases)
    # The job's time outside placing and legalizing, less parse and set-up.
    layers["api.other_s"] = median(
        job["seconds"] - job["phases"].get("place", 0.0) - job["phases"].get("legalize", 0.0)
        for job in jobs
    ) - layers["netlist.parse_s"] - layers["core.setup_s"]
    return layers


def closed_loop_layers(workload: str, report, calls: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-layer metrics of a traced closed-loop run: per-job medians on
    batch-1k, per design on place-100k and floorplan-mixed."""
    ops = report["ops"]
    if workload == "batch-1k":
        jobs = [job for op in ops for job in op["jobs"] if job["ok"]]
        layers = job_layers(jobs, calls)
        seconds = [job["seconds"] for job in jobs]
        layers["parallel.job_s_p50"], layers["parallel.jobs"] = percentile(seconds, 0.5)
        layers["parallel.efficiency"] = sum(seconds) / sum(
            op["workers"] * op["wall_s"] for op in ops
        )
        return layers
    n = len(ops)
    layers = {
        "netlist.parse_s": sum(calls.get("parse", [])) / n,
        "core.setup_s": sum(calls.get("setup", [])) / n,
        "core.iterations": sum(op["iterations"] for op in ops),
    }
    for name in CORE_SPANS:
        layers[f"core.{name}_s"] = median(_span(op["spans"], name) for op in ops)
    if workload == "floorplan-mixed":
        layers["core.cg_iterations"] = sum(op["cg_iterations"] for op in ops)
        layers["floorplan.global_s"] = median(op["global_s"] for op in ops)
        layers["floorplan.backend_s"] = median(op["backend_s"] for op in ops)
        return layers
    levels = [f"level-{level}" for level in (2, 1, 0)]
    layers["core.cg_iterations"] = sum(_span(op["spans"], "cg_iterations") for op in ops)
    layers["netlist.coarsen_s"] = median(_span(op["spans"], "coarsen") for op in ops)
    for level in levels:
        layers[f"core.{level.replace('-', '')}_s"] = median(_span(op["spans"], level) for op in ops)
    for name in ("snap", "improve"):
        layers[f"legalize.{name}_s"] = median(_span(op["spans"], name) for op in ops)
    # The call's wall time outside parse, coarsening, the levels and legalizing.
    layers["api.other_s"] = median(
        op["wall_s"] - sum(_span(op["spans"], name) for name in ["coarsen", "legalize", *levels])
        for op in ops
    ) - layers["netlist.parse_s"]
    return layers

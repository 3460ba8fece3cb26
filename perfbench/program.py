"""The program side of the benchmark: one process that runs repro.

``python3 perfbench/program.py <workload> --manifest M --out O ...`` imports
repro, runs the closed-loop workload's operations over the inputs listed in
the manifest, and writes what it measured to *O* (JSON) plus each final
placement to ``<O>.npz``.  Its peak RSS, taken before anything else runs
after the operations, is the workload's ``peak_rss_mb``; the harness checks
the placements in its own process.

``program.py server --calls DIR -- <repro cli args>`` is the traced
serve-1k server: it installs the call timers, then runs the repro CLI.

With ``--calls DIR`` (a traced run) the process wraps two public callables
of the program with timers that append one line per call to
``DIR/<pid>.jsonl``; forked pool workers inherit the wrappers:

- ``repro.api.load_bookshelf`` -> ``parse`` (Bookshelf parsing),
- ``KraftwerkPlacer.__init__`` -> ``setup`` (placer set-up).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np


class CallLog:
    """Per-process JSONL log of timed calls (reopened after a fork)."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._pid = None
        self._file = None

    def record(self, name: str, seconds: float) -> None:
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._file = open(
                self.directory / f"{self._pid}.jsonl", "a", buffering=1,
                encoding="utf-8",
            )
        self._file.write(json.dumps({"name": name, "s": seconds}) + "\n")


def _time_calls(owner: Any, attr: str, name: str, log: CallLog) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            log.record(name, time.perf_counter() - t0)

    setattr(owner, attr, timed)


def install_timers(directory: Path) -> None:
    import repro.api
    from repro.core.placer import KraftwerkPlacer

    Path(directory).mkdir(parents=True, exist_ok=True)
    log = CallLog(directory)
    _time_calls(repro.api, "load_bookshelf", "parse", log)
    _time_calls(KraftwerkPlacer, "__init__", "setup", log)


def read_calls(directory: Path) -> Dict[str, List[float]]:
    """Every timed call under *directory*: ``{name: [seconds, ...]}``."""
    calls: Dict[str, List[float]] = {}
    for path in sorted(Path(directory).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            calls.setdefault(entry["name"], []).append(entry["s"])
    return calls


def span_totals(telemetry) -> Dict[str, float]:
    """``{span name: seconds}`` plus the summed ``cg_iterations`` counter."""
    totals = telemetry.spans.totals()
    out = {name: agg["seconds"] for name, agg in totals.items()}
    out["cg_iterations"] = sum(agg.get("cg_iterations", 0.0) for agg in totals.values())
    return out


def peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ----------------------------------------------------------------------
# Workloads.  Each returns (ops, placements, peak_rss_mb) once the program
# has finished its operations; ``ready`` marks the end of set-up.
# ----------------------------------------------------------------------
def run_place(manifest, traced: bool, ready: Callable[[], None]):
    import repro

    ready()
    ops, placements = [], []
    for design in manifest["designs"]:
        telemetry = repro.Telemetry() if traced else None
        t0 = time.perf_counter()
        flow = repro.place(
            design["aux"], config=manifest["config"],
            seed=design["placer_seed"], telemetry=telemetry,
        )
        wall = time.perf_counter() - t0
        ops.append({
            "wall_s": wall,
            "ok": flow.legalized is not None,
            "legal_hpwl_m": flow.legal_hpwl_m,
            "iterations": flow.iterations,
            "spans": span_totals(telemetry) if traced else None,
            "placement": len(placements),
        })
        placements.append((flow.final.x.copy(), flow.final.y.copy()))
        del flow
    return ops, placements, peak_rss_mb()


def run_batch(manifest, traced: bool, ready: Callable[[], None], work: Path):
    import repro

    client = repro.Client.local()
    warmup = manifest["warmup"]
    client.map(warmup["sources"], seeds=warmup["seeds"], workers=manifest["workers"])
    ready()
    ops, placements = [], []
    for k, call in enumerate(manifest["maps"]):
        trace_dir = work / f"traces{k}" if traced else None
        t0 = time.perf_counter()
        batch = client.map(
            call["sources"], seeds=call["seeds"], workers=manifest["workers"],
            trace_dir=trace_dir,
        )
        wall = time.perf_counter() - t0
        jobs = []
        for job in batch.jobs:
            jobs.append({
                "ok": job.ok,
                "seconds": job.seconds,
                "iterations": job.iterations,
                "legal_hpwl_m": job.legal_hpwl_m,
                "phases": job.phases,
                "trace": job.trace_path,
                "placement": len(placements) if job.ok else None,
            })
            if job.ok:
                placements.append((job.flow.final.x, job.flow.final.y))
        ops.append({"wall_s": wall, "workers": batch.workers, "jobs": jobs})
    return ops, placements, peak_rss_mb(children=True)


def run_floorplan(manifest, traced: bool, ready: Callable[[], None]):
    import repro
    import repro.floorplan.mixed as mixed
    from repro.geometry import PlacementRegion
    from repro.netlist import load_netlist

    designs = [
        (load_netlist(d["netlist"]), PlacementRegion.standard_cell(**d["region"]))
        for d in manifest["designs"]
    ]
    telemetries: List[Any] = []
    if traced:
        # MixedSizePlacer builds its global placer without telemetry; hand
        # each one a recorder so its spans can be read from outside.
        placer_class = mixed.KraftwerkPlacer

        def traced_placer(*args, **kwargs):
            kwargs.setdefault("telemetry", repro.Telemetry())
            telemetries.append(kwargs["telemetry"])
            return placer_class(*args, **kwargs)

        mixed.KraftwerkPlacer = traced_placer
    ready()
    ops, placements = [], []
    for netlist, region in designs:
        t0 = time.perf_counter()
        result = repro.MixedSizePlacer(netlist, region).place()
        wall = time.perf_counter() - t0
        glob = result.global_result
        ops.append({
            "wall_s": wall,
            "ok": True,
            "legal_hpwl_m": result.hpwl_m,
            "iterations": glob.iterations,
            "cg_iterations": sum(h.cg_iterations for h in glob.history),
            "global_s": glob.seconds,
            "backend_s": result.seconds - glob.seconds,
            "spans": span_totals(telemetries[-1]) if traced else None,
            "placement": len(placements),
        })
        placements.append((result.placement.x, result.placement.y))
    return ops, placements, peak_rss_mb()


def run_server(argv: List[str]) -> int:
    """``server --calls DIR -- <repro cli args>``: the traced serve-1k server."""
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="program.py server")
    parser.add_argument("--calls", required=True)
    install_timers(Path(parser.parse_args(argv[:split]).calls))
    from repro.cli import main as repro_main

    return repro_main(argv[split + 1:])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["server"]:
        return run_server(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("place-100k", "batch-1k", "floorplan-mixed"))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--calls", help="traced run: log timed calls here")
    args = parser.parse_args(argv)
    traced = args.calls is not None

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    out = Path(args.out)
    setup: Dict[str, float] = {}

    def ready() -> None:
        setup["setup_s"] = time.monotonic() - args.spawned_at
        if args.setup_only:
            out.write_text(json.dumps(setup), encoding="utf-8")
            sys.exit(0)
        if traced:
            install_timers(Path(args.calls))

    if args.workload == "place-100k":
        ops, placements, rss = run_place(manifest, traced, ready)
    elif args.workload == "batch-1k":
        ops, placements, rss = run_batch(manifest, traced, ready, out.parent)
    else:
        ops, placements, rss = run_floorplan(manifest, traced, ready)
    np.savez(
        str(out) + ".npz",
        **{f"x{i}": x for i, (x, _) in enumerate(placements)},
        **{f"y{i}": y for i, (_, y) in enumerate(placements)},
    )
    out.write_text(
        json.dumps({"setup_s": setup["setup_s"], "peak_rss_mb": rss, "ops": ops}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

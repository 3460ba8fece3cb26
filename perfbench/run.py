#!/usr/bin/env python3
"""Benchmark of the Kraftwerk placer: four workloads, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-1k --seed 1 --seconds 40 --trace 0

``--workload all`` (the default) runs every workload in turn.  Each run
generates its inputs from ``--seed``, runs the program in processes of its
own (see ``program.py`` and ``serve.py``), checks every output outside the
timed window, prints each metric by name and unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of an untraced run; ``--trace 1`` repeats the
same work traced in a fresh process and reports the per-layer metrics,
including the traced/untraced gap as ``observability.trace_overhead_frac``.
The exit code is 1 when an output check fails, 2 on a usage error or when
the checkout has no program.  See ``README.md`` for the workloads and the
layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

from layers import closed_loop_layers  # noqa: E402
from stats import median  # noqa: E402
from workloads import SETUP_REPS, WORKLOADS, make_inputs  # noqa: E402

PROGRAM_TIMEOUT_S = 170.0


class CheckFailed(Exception):
    """An output of the program failed its check."""


def run_program(workload: str, work: Path, out_name: str, *extra: str) -> Dict[str, Any]:
    """Run ``program.py`` once in a fresh process; returns its JSON report."""
    out = work / out_name
    cmd = [
        sys.executable, str(HERE / "program.py"), workload,
        "--manifest", str(work / "manifest.json"), "--out", str(out),
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    subprocess.run(cmd, check=True, timeout=PROGRAM_TIMEOUT_S)
    return json.loads(out.read_text(encoding="utf-8"))


def check_legal(netlist, region, xy, obstacles=()) -> None:
    from repro.netlist import Placement
    from repro.testing import assert_legal

    try:
        assert_legal(Placement(netlist, xy[0], xy[1]), region, obstacles=obstacles)
    except AssertionError as exc:
        raise CheckFailed(f"illegal placement of {netlist.name}: {exc}") from None


def check_floorplan(netlist, region, xy) -> None:
    """Cells legal around the blocks, blocks inside the region and apart."""
    from repro.netlist import CellKind, Placement

    placement = Placement(netlist, xy[0], xy[1])
    blocks = [
        placement.rect_of(int(i)) for i in netlist.movable_indices
        if netlist.cells[int(i)].kind is CellKind.BLOCK
    ]
    check_legal(netlist, region, xy, obstacles=blocks)
    bounds = region.bounds
    for a, rect in enumerate(blocks):
        if not (bounds.xlo - 1e-6 <= rect.xlo and rect.xhi <= bounds.xhi + 1e-6
                and bounds.ylo - 1e-6 <= rect.ylo and rect.yhi <= bounds.yhi + 1e-6):
            raise CheckFailed(f"block {rect} leaves the region {bounds}")
        for other in blocks[a + 1:]:
            if rect.overlap_area(other) > 0.0:
                raise CheckFailed(f"blocks {rect} and {other} overlap")


def load_placements(report_path: Path):
    import numpy as np

    with np.load(str(report_path) + ".npz") as data:
        return {int(k[1:]): (data[k], data["y" + k[1:]]) for k in data.files if k[0] == "x"}


# ----------------------------------------------------------------------
# Closed-loop workloads: place-100k, batch-1k, floorplan-mixed
# ----------------------------------------------------------------------
def _read_input(workload: str, item):
    """The design *item* names, read exactly as the program read it."""
    from repro.geometry import PlacementRegion
    from repro.netlist import load_bookshelf, load_netlist

    if workload == "floorplan-mixed":
        return load_netlist(item["netlist"]), PlacementRegion.standard_cell(**item["region"])
    return load_bookshelf(item)[:2]


def _check_ops(workload: str, manifest, report, placements, notes: List[str]) -> List[bool]:
    """Check every output of *report*; returns one OK flag per operation."""
    if workload == "batch-1k":
        outputs = [
            (source, job)
            for op, call in zip(report["ops"], manifest["maps"])
            for source, job in zip(call["sources"], op["jobs"])
        ]
    else:
        outputs = [
            (design["aux"] if workload == "place-100k" else design, op)
            for op, design in zip(report["ops"], manifest["designs"])
        ]
    designs: Dict[str, Any] = {}
    flags: List[bool] = []
    for item, out in outputs:
        if not out["ok"]:
            flags.append(False)
            continue
        key = json.dumps(item, sort_keys=True)
        if key not in designs:
            designs[key] = _read_input(workload, item)
        netlist, region = designs[key]
        try:
            if workload == "floorplan-mixed":
                check_floorplan(netlist, region, placements[out["placement"]])
            else:
                check_legal(netlist, region, placements[out["placement"]])
        except CheckFailed as exc:
            notes.append(str(exc))
            flags.append(False)
            continue
        flags.append(True)
    return flags


def op_seconds(report) -> float:
    """``place_s`` of a closed-loop run: the wall time of the user's calls
    (one design each, or one Client.map call each on batch-1k) divided by
    their number.  Calls place different circuits, and the host's speed
    drifts over seconds, so the whole window is averaged; on batch-1k this
    is 16 jobs / ``jobs_per_s``."""
    return sum(op["wall_s"] for op in report["ops"]) / len(report["ops"])


def run_closed_loop(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Dict[str, Any]:
    """One run of place-100k, batch-1k or floorplan-mixed.

    Untraced: set up ``SETUP_REPS`` times (once in the measured process),
    run the operations, check every output.  Traced: run the same work
    untraced and then traced, each in a fresh process, and check the traced
    outputs.
    """
    t0 = time.perf_counter()
    manifest = make_inputs(workload, seed, seconds, work)
    generate_s = time.perf_counter() - t0
    setups = []
    if not trace:
        setups = [
            run_program(workload, work, f"setup{k}.json", "--setup-only")["setup_s"]
            for k in range(SETUP_REPS - 1)
        ]
    report = run_program(workload, work, "untraced.json")
    setups.append(report["setup_s"])
    measured = report
    if trace:
        measured = run_program(workload, work, "traced.json", "--calls", str(work / "calls"))
    notes: List[str] = []
    flags = _check_ops(workload, manifest, measured, load_placements(work / (
        "traced.json" if trace else "untraced.json")), notes)
    if workload == "batch-1k":
        hpwls = [job["legal_hpwl_m"] for op in report["ops"] for job in op["jobs"] if job["ok"]]
    else:
        hpwls = [op["legal_hpwl_m"] for op in report["ops"] if op["ok"]]
    result: Dict[str, Any] = {
        "attempted": len(flags),
        "failed": flags.count(False),
        "correct": not notes,
        "notes": notes,
        "samples": {"place_s": len(report["ops"]), "legal_hpwl_m": len(hpwls)},
        "e2e": {
            "place_s": op_seconds(report),
            "legal_hpwl_m": median(hpwls),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_frac": flags.count(True) / len(flags),
            "setup_s": median(setups),
        },
    }
    if trace:
        from program import read_calls

        layers = closed_loop_layers(workload, measured, read_calls(work / "calls"))
        layers["observability.trace_overhead_frac"] = (
            op_seconds(measured) / result["e2e"]["place_s"] - 1.0
        )
        layers["harness.generate_s"] = generate_s
        result["layers"] = layers
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    work = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if workload == "serve-1k":
            from serve import run_serve

            return run_serve(seed, seconds, trace, work)
        return run_closed_loop(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metric_units() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {...}}`` from the
    checkout's ``BENCHMARK.json``, the one list of metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def report_line(workload: str, result: Dict[str, Any], units: Dict[str, str], trace: bool) -> Dict[str, Any]:
    """Print *result*'s metrics named in *units* for people, and return the
    JSON result object.  A layer the workload does not run reports 0."""
    measured = result["layers"] if trace else result["e2e"]
    unknown = set(measured) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    values = {
        name: float(measured.get(name, 0.0) if trace else measured[name]) for name in units
    }
    for name, value in values.items():
        count = result.get("samples", {}).get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{workload:16s} {name:36s} {value:14.6g} {units[name]}{suffix}")
    for note in result["notes"]:
        print(f"{workload:16s} CHECK FAILED: {note}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program here; run from the root of a checkout "
            "(src/repro is missing)", file=sys.stderr,
        )
        return 2
    # repro serve drains and exits on SIGINT, but a process started with
    # SIGINT ignored (as a background job's children are) keeps it ignored,
    # and passes that on.  Catching it here gives every child the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # The program's processes and this one import repro from the checkout.
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        lines.append(report_line(workload, result, units, bool(args.trace)))
    for line in lines:
        print(json.dumps(line, sort_keys=True))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())

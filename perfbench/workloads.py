"""The four workloads, pinned: generator specs, placer configs, seeds, op
counts and the serve rate, plus the harness code that writes their inputs.

Everything here is spelled out rather than imported from the program
(``repro.observability.bench.SCALE_KNOBS`` and friends), so an edit to the
program cannot change what the benchmark runs.  Every circuit, placer
seed and send time is drawn from ``random.Random("<workload>/<seed>")``:
the same ``--seed`` gives the same inputs, and the program only ever sees
the files and the manifest written here.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from typing import Any, Dict, List

from stats import arrival_schedule, min_samples

WORKLOADS = ("place-100k", "batch-1k", "serve-1k", "floorplan-mixed")

NPROC = os.cpu_count() or 1

#: Generator specs.  ``large`` and ``medium`` are the topologies of
#: ``bench_spec("large")`` and ``bench_spec("medium")``; ``mixed@1`` is the
#: paper's Section 5 mixed block/cell circuit: the primary2 profile at scale
#: 1.0 with 8 movable blocks taking 35% of the movable area.
LARGE_SPEC = {"name": "large", "num_cells": 100_000, "num_rows": 144}
MEDIUM_SPEC = {"name": "medium", "num_cells": 1200, "num_rows": 16}
MIXED_SPEC = {
    "name": "mixed@1",
    "num_cells": 2907,
    "num_nets": 3029,
    "num_rows": 28,
    "num_blocks": 8,
    "block_area_fraction": 0.35,
    "utilization": 0.7,
}

#: place-100k's placer config: a 2-level V-cycle, auto-sized legalization
#: bands on every core, improvement passes that stop below a 1% gain and 8
#: refinement iterations per level.
PLACE_100K_CONFIG = {
    "multilevel_levels": 2,
    "legalize_bands": 0,
    "legalize_threads": NPROC,
    "improver_min_gain": 0.01,
    "multilevel_refine_iterations": 8,
}

#: Work per run.  Each closed-loop run does a fixed number of operations,
#: sized so a run takes about ``--seconds`` on a 2-core machine; a fixed
#: count keeps ``legal_hpwl_m`` and the traced counts exact for a seed.
#: Approximate seconds per operation:
PLACE_100K_OP_S = 25.0  # one 100k-cell design, parse to legal placement
BATCH_MAP_S = 3.3  # one Client.map call of BATCH_CIRCUITS * BATCH_SEEDS jobs
FLOORPLAN_OP_S = 4.5  # one mixed block/cell design
#: Each Client.map call places BATCH_SEEDS placer seeds on each of
#: BATCH_CIRCUITS fresh 1.2k-cell circuits.  A circuit's placer iteration
#: counts, and so its job times, differ several-fold from the next one's;
#: spreading a call over several circuits keeps one call like the next.
BATCH_CIRCUITS = 4
BATCH_SEEDS = 4

#: Set-up is measured this many times per run, in fresh processes, and
#: reported as the median.
SETUP_REPS = 3

#: serve-1k offered load: requests per second over the window, on one
#: connection.  At 0.75 a request seldom overlaps the previous one, and a
#: 40-s window holds 30 requests (a p50 needs 20).
SERVE_RATE = 0.75
#: Placer iteration cap of every serve-1k request, as ``repro loadgen``
#: uses by default.  Shipped inline, a design is placed in a square region
#: derived from its area, where some designs do not converge and run to the
#: 120-iteration default (about 1.1 s instead of 0.25 s), and one worker
#: falls behind.  Capped, each request costs about the same (0.15 s in the
#: worker), the service layers are half of its latency, and a request
#: seldom arrives while another one runs: on two cores an overlap roughly
#: doubles both requests' latency, which would make the p50 swing between
#: the two cases from seed to seed.
SERVE_MAX_ITERATIONS = 8
#: 1.2k-cell designs the requests take turns on.  Designs differ in cost
#: and wire length, and several keep one run like the next.
SERVE_DESIGNS = 5
#: Warm-up requests before the window (their seeds are never timed).
SERVE_WARMUP = 2
#: Served requests re-run in-process and resubmitted after the window.
SERVE_CHECKS = 4


def serve_workers() -> int:
    """The server's worker count: every core but the one its front end uses."""
    return max(1, NPROC - 1)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _draw_seeds(rng: random.Random, n: int) -> List[int]:
    """*n* distinct 31-bit seeds."""
    return rng.sample(range(2**31), n)


def op_count(workload: str, seconds: float) -> int:
    """Operations one run of *workload* performs in a *seconds* window."""
    if workload == "place-100k":
        return max(1, round(seconds / PLACE_100K_OP_S))
    if workload == "batch-1k":
        return max(2, round(seconds / BATCH_MAP_S))
    if workload == "floorplan-mixed":
        return max(1, round(seconds / FLOORPLAN_OP_S))
    if workload == "serve-1k":
        n = round(SERVE_RATE * seconds)
        need = min_samples(0.5)
        if n < need:
            raise ValueError(
                f"serve-1k needs {need} requests for its p50 but "
                f"{seconds:g} s at {SERVE_RATE} req/s gives {n}; "
                f"use --seconds {need / SERVE_RATE:.0f} or more"
            )
        return n
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Input generation (harness time, reported as harness.generate_s)
# ----------------------------------------------------------------------
def _generate(spec: Dict[str, Any], seed: int):
    from repro.netlist import GeneratorSpec, generate_circuit

    return generate_circuit(GeneratorSpec(seed=seed, **spec))


def _write_bookshelf(circuit, base: Path) -> str:
    from repro.netlist import save_bookshelf

    return str(save_bookshelf(circuit.netlist, circuit.region, base))


def make_inputs(workload: str, seed: int, seconds: float, work: Path) -> Dict[str, Any]:
    """Write *workload*'s inputs under *work* and return its manifest.

    The manifest (also written to ``work/manifest.json``) is everything the
    program process is told: input paths, seeds and configs.
    """
    rng = _rng(workload, seed)
    n = op_count(workload, seconds)
    work.mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, Any] = {"workload": workload, "seed": seed}
    if workload == "place-100k":
        designs = []
        for k, (circuit_seed, placer_seed) in enumerate(
            zip(_draw_seeds(rng, n), _draw_seeds(rng, n))
        ):
            circuit = _generate(LARGE_SPEC, circuit_seed)
            designs.append({
                "aux": _write_bookshelf(circuit, work / f"large{k}"),
                "placer_seed": placer_seed,
            })
            del circuit
        manifest.update(config=PLACE_100K_CONFIG, designs=designs)
    elif workload == "batch-1k":
        circuit_seeds = _draw_seeds(rng, (n + 1) * BATCH_CIRCUITS)
        job_seeds = iter(_draw_seeds(rng, (n + 1) * BATCH_CIRCUITS * BATCH_SEEDS))
        maps = []
        for k in range(n + 1):
            sources, seeds = [], []
            for c in range(BATCH_CIRCUITS):
                circuit = _generate(MEDIUM_SPEC, circuit_seeds[k * BATCH_CIRCUITS + c])
                aux = _write_bookshelf(circuit, work / f"medium{k}-{c}")
                for _ in range(BATCH_SEEDS):
                    sources.append(aux)
                    seeds.append(next(job_seeds))
            maps.append({"sources": sources, "seeds": seeds})
        # The first call is the warm-up, outside the timed window.
        warmup = {"sources": maps[0]["sources"][:NPROC], "seeds": maps[0]["seeds"][:NPROC]}
        manifest.update(workers=NPROC, warmup=warmup, maps=maps[1:])
    elif workload == "floorplan-mixed":
        from repro.netlist import save_netlist

        designs = []
        for k, circuit_seed in enumerate(_draw_seeds(rng, n)):
            circuit = _generate(MIXED_SPEC, circuit_seed)
            path = work / f"mixed{k}.netlist"
            save_netlist(circuit.netlist, path)
            bounds = circuit.region.bounds
            designs.append({
                "netlist": str(path),
                "region": {
                    "width": bounds.width,
                    "height": bounds.height,
                    "row_height": circuit.region.row_height,
                },
            })
        manifest.update(designs=designs)
    elif workload == "serve-1k":
        from repro.netlist import netlist_to_string

        designs = []
        for k, circuit_seed in enumerate(_draw_seeds(rng, SERVE_DESIGNS)):
            path = work / f"serve{k}.netlist"
            path.write_text(
                netlist_to_string(_generate(MEDIUM_SPEC, circuit_seed).netlist), encoding="utf-8"
            )
            designs.append(str(path))
        # Unique placer seeds: no request, warm-up or timed, can hit the
        # result cache, whatever the timing.
        seeds = _draw_seeds(rng, SERVE_WARMUP + n)
        manifest.update(
            workers=serve_workers(),
            designs=designs,
            max_iterations=SERVE_MAX_ITERATIONS,
            warmup=[
                {"design": k % SERVE_DESIGNS, "seed": s}
                for k, s in enumerate(seeds[:SERVE_WARMUP])
            ],
            requests=[
                {"design": i % SERVE_DESIGNS, "seed": s, "at": at}
                for i, (s, at) in enumerate(
                    zip(seeds[SERVE_WARMUP:], arrival_schedule(rng, n, seconds))
                )
            ],
            checked=sorted(rng.sample(range(n), min(SERVE_CHECKS, n))),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest

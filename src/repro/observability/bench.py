"""The ``repro bench`` regression harness.

Runs the generator circuits through the full place + legalize flow under a
real telemetry recorder and emits a machine-readable report
(``BENCH_kraftwerk.json`` by default) containing:

- a *complete* wall-clock attribution: every second of ``total_seconds``
  lands in exactly one bucket — the placer's leaf spans (density, poisson,
  sample, assemble, hold, solve, stats, coarsen, setup, expand), the
  legalization leaves (snap, improve, domino), the harness's own work
  (generate, repeat, evaluate) and two explicit residuals (``place_other``,
  ``legalize_other``) plus the final ``other`` catch-all.  The run *fails*
  (``RuntimeError``) when the named buckets explain less than
  :data:`MIN_TRACKED_SHARE` of the wall — an untracked cost must be
  attributed, not ignored,
- final HPWL (global and legalized) and iteration count,
- a determinism check: the run is repeated with the same seed under the
  no-op recorder and must produce a bit-identical placement (compared by
  SHA-256 over the raw coordinate bytes),
- the telemetry overhead estimate that falls out of the repeat run for
  free (instrumented wall-clock vs. no-op wall-clock),
- the machine context (CPU count, platform, numpy/scipy versions) so
  absolute timings from different hosts are never compared blindly,
- optionally (``profile=True`` / ``repro bench --profile``) the top-15
  cumulative-time functions of the place and legalize phases from
  :mod:`cProfile`.

Future PRs regress against the committed ``BENCH_*.json``: a phase that
suddenly dominates, an iteration count that doubles, or a determinism hash
that drifts without an intentional algorithm change is a regression.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..core import KraftwerkPlacer, PlacerConfig
from ..core.reuse import ReuseContext
from ..evaluation import hpwl_meters
from ..legalize import final_placement
from ..netlist import generate_circuit
from ..netlist.placement import placement_hash
from ..netlist.generator import BENCH_SIZES, bench_spec
from . import NULL_TELEMETRY, Telemetry

BENCH_SCHEMA = "repro-bench/2"

#: Top-level keys of the pre-``repro-bench/2`` report that mirrored the
#: first run; stripped on rewrite so ``runs`` is the single source of truth.
_LEGACY_MIRROR_KEYS = (
    "phases",
    "phase_shares",
    "hpwl_m",
    "final_hpwl_m",
    "iterations",
    "cg_iterations",
    "determinism_hash",
)

# BENCH_SIZES is owned by the netlist layer (repro.netlist.generator):
# the generator defines the circuits, this module layers the benchmark
# harness on top and re-exports the table for existing importers.

#: Sizes the default sweep (``--sizes all`` / no flag) runs; the committed
#: report always carries these three, large/huge are recorded on demand.
DEFAULT_SIZES = ("tiny", "small", "medium")

#: Coarsening levels the bench uses per size (0 = flat placement).
MULTILEVEL_LEVELS: Dict[str, int] = {"large": 2, "huge": 3}

#: Extra placer knobs for the scale sizes.  ``legalize_bands=0`` lets the
#: banded Abacus auto-size (one band per ~50k cells, serial below 20k) and
#: ``legalize_threads`` follows the machine; both are bit-identical to the
#: serial sweep, so determinism hashes are unaffected.  The other two are
#: quality knobs, applied only where the defaults would dominate the wall
#: clock: ``improver_min_gain`` early-exits improvement passes whose HPWL
#: gain drops below 1 % of the pre-improve wire length (measured +1.3 %
#: legalized HPWL on large for a ~5x cheaper improve), and the refine
#: budget drops 12 -> 8 iterations per V-cycle level (+0.2 % global HPWL
#: on large for ~20 % less solve time).
SCALE_KNOBS: Dict[str, Dict[str, Any]] = {
    "large": {
        "legalize_bands": 0,
        "legalize_threads": max(1, os.cpu_count() or 1),
        "improver_min_gain": 0.01,
        "multilevel_refine_iterations": 8,
    },
    "huge": {
        "legalize_bands": 0,
        "legalize_threads": max(1, os.cpu_count() or 1),
        "improver_min_gain": 0.01,
        "multilevel_refine_iterations": 8,
    },
}

#: Leaf telemetry spans of the placement run (no span in this tuple is
#: ever nested inside another, so their totals are disjoint wall-clock).
PLACE_LEAVES = (
    "coarsen",
    "setup",
    "density",
    "poisson",
    "sample",
    "assemble",
    "hold",
    "solve",
    "stats",
    "expand",
)

#: Leaf spans of the legalization stage (children of ``legalize``).
LEGALIZE_LEAVES = ("snap", "improve", "domino")

#: Every bucket of the report's wall-clock attribution, in report order.
#: ``*_other`` are measured-wall-minus-leaves residuals of the place and
#: legalize stages; ``other`` is whatever the harness could not attribute.
REPORT_PHASES = (
    ("generate",)
    + PLACE_LEAVES
    + ("place_other",)
    + LEGALIZE_LEAVES
    + ("legalize_other", "repeat", "evaluate", "other")
)

#: A phase eating more than this share of the wall is flagged as the run's
#: bottleneck in the report (and by ``repro bench``).
BOTTLENECK_SHARE = 0.4

#: Minimum fraction of ``total_seconds`` the named buckets (everything but
#: ``other``) must explain; below this the report raises instead of
#: publishing numbers that silently hide an untracked cost.
MIN_TRACKED_SHARE = 0.9


def phase_shares(
    phases: Dict[str, float], total: Optional[float] = None
) -> Dict[str, Any]:
    """Per-phase wall-time shares plus the dominant-phase flags.

    Returns ``{"shares": {...}, "top_phase": ..., "bottleneck": ...}``.
    Shares are fractions of ``total`` (the run's wall clock) when given,
    else of the summed phase time; with the ``other`` residual included the
    shares sum to 1 by construction.  ``top_phase`` always names the
    largest phase (``None`` only when nothing recorded time) and
    ``bottleneck`` repeats it when its share exceeds
    :data:`BOTTLENECK_SHARE`.
    """
    denom = total if total is not None and total > 0 else sum(phases.values())
    shares = {
        name: round(seconds / denom, 4) if denom > 0 else 0.0
        for name, seconds in phases.items()
    }
    top_phase = max(shares, key=shares.get) if denom > 0 else None
    bottleneck = (
        top_phase
        if top_phase is not None and shares[top_phase] > BOTTLENECK_SHARE
        else None
    )
    return {"shares": shares, "top_phase": top_phase, "bottleneck": bottleneck}


def machine_context() -> Dict[str, Any]:
    """CPU/platform/library versions — context for absolute timings."""
    import os
    import platform

    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _profile_top(profiler, limit: int = 15) -> List[Dict[str, Any]]:
    """Top ``limit`` functions of a :class:`cProfile.Profile` by cumtime."""
    import pstats

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:limit]:  # (file, line, name), sorted
        cc, nc, tt, ct, _ = stats.stats[func]
        filename, line, name = func
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "ncalls": int(nc),
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
    return rows


def resolve_sizes(spec: Optional[str]) -> List[str]:
    """Expand a ``--sizes`` argument into a validated size list.

    ``None`` or ``"all"`` select the default sweep (tiny/small/medium);
    ``large``/``huge`` must be requested explicitly, e.g.
    ``"medium,large"``.
    """
    if spec is None or spec == "all":
        return list(DEFAULT_SIZES)
    sizes = [s.strip() for s in spec.split(",") if s.strip()]
    if not sizes:
        raise ValueError("no bench sizes given")
    for size in sizes:
        if size not in BENCH_SIZES:
            raise ValueError(
                f"unknown bench size {size!r}; choose from {sorted(BENCH_SIZES)}"
            )
    return sizes


def _vcycle_breakdown(telemetry: Telemetry) -> List[Dict[str, Any]]:
    """Per-level leaf-span fold of a multilevel run (empty when flat)."""
    leaves = set(PLACE_LEAVES)
    out: List[Dict[str, Any]] = []
    for root in telemetry.spans.roots:
        if not root.name.startswith("level-"):
            continue
        sub: Dict[str, float] = {}
        for _, span in root.walk():
            if span is not root and span.name in leaves:
                sub[span.name] = sub.get(span.name, 0.0) + span.seconds
        out.append(
            {
                "level": root.name,
                "seconds": round(root.seconds, 6),
                "phases": {k: round(v, 6) for k, v in sorted(sub.items())},
            }
        )
    return out


def run_bench(
    size: str = "tiny",
    seed: int = 0,
    legalize: bool = True,
    trace_path: Optional[Union[str, Path]] = None,
    profile: bool = False,
) -> Dict[str, Any]:
    """Benchmark one generator circuit; returns the report dict.

    The circuit is placed twice with the same seed: once instrumented,
    once under the no-op recorder.  The second run powers both the
    determinism check and the telemetry-overhead estimate; it shares a
    :class:`~repro.core.reuse.ReuseContext` with the first run, so it pays
    no setup cost (bit-identically — the determinism hash pins that).

    ``profile=True`` additionally runs :mod:`cProfile` over the
    instrumented placement and the legalization, and attaches the top-15
    cumulative functions of each under ``"profile"``.
    """
    from ..perf import tune_allocator

    tune_allocator()
    t_begin = time.perf_counter()
    spec = bench_spec(size, seed=seed)
    circuit = generate_circuit(spec)
    netlist, region = circuit.netlist, circuit.region
    generate_s = time.perf_counter() - t_begin
    levels = MULTILEVEL_LEVELS.get(size, 0)
    config = PlacerConfig(
        seed=seed, multilevel_levels=levels, **SCALE_KNOBS.get(size, {})
    )
    reuse = ReuseContext()

    def _run(telemetry=None):
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        if levels > 0:
            from ..core.multilevel import MultilevelPlacer

            ml = MultilevelPlacer(
                netlist, region, config, telemetry=tel, reuse=reuse
            ).place()
            histories = [r.history for r in ml.coarse_results] + [
                ml.refine_result.history
            ]
            return (
                ml.placement,
                ml.total_iterations,
                ml.refine_result.converged,
                [s for h in histories for s in h],
                ml.hpwl_m,
            )
        with tel.span("setup"):
            placer = KraftwerkPlacer(
                netlist, region, config, telemetry=tel, reuse=reuse
            )
        result = placer.place()
        return (
            result.placement,
            result.iterations,
            result.converged,
            result.history,
            result.hpwl_m,
        )

    prof_place = prof_legalize = None
    if profile:
        import cProfile

        prof_place = cProfile.Profile()
        prof_legalize = cProfile.Profile()

    telemetry = Telemetry()
    t0 = time.perf_counter()
    if prof_place is not None:
        prof_place.enable()
    placement, iterations, converged, history, global_hpwl = _run(telemetry)
    if prof_place is not None:
        prof_place.disable()
    instrumented_s = time.perf_counter() - t0

    final = placement
    legalize_s = 0.0
    if legalize:
        t0 = time.perf_counter()
        if prof_legalize is not None:
            prof_legalize.enable()
        final = final_placement(
            placement,
            region,
            telemetry=telemetry,
            bands=config.legalize_bands,
            threads=config.legalize_threads,
            improver_min_gain=config.improver_min_gain,
        )
        if prof_legalize is not None:
            prof_legalize.disable()
        legalize_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    repeat_placement = _run()[0]
    noop_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    global_hash = placement_hash(placement)
    repeat_hash = placement_hash(repeat_placement)
    final_hpwl = hpwl_meters(final)
    evaluate_s = time.perf_counter() - t2

    # ---- wall-clock attribution: every bucket disjoint, sum == wall ----
    totals = telemetry.spans.totals()

    def leaf(name: str) -> float:
        return totals.get(name, {}).get("seconds", 0.0)

    place_leaf_s = sum(leaf(n) for n in PLACE_LEAVES)
    legalize_leaf_s = sum(leaf(n) for n in LEGALIZE_LEAVES)
    phases = {name: round(leaf(name), 6) for name in PLACE_LEAVES}
    phases["generate"] = round(generate_s, 6)
    # Residual of the placement run: iteration glue between the leaf spans
    # (convergence stats, position updates, history bookkeeping).
    phases["place_other"] = round(max(instrumented_s - place_leaf_s, 0.0), 6)
    for name in LEGALIZE_LEAVES:
        phases[name] = round(leaf(name), 6)
    phases["legalize_other"] = round(
        max(legalize_s - legalize_leaf_s, 0.0), 6
    )
    phases["repeat"] = round(noop_s, 6)
    phases["evaluate"] = round(evaluate_s, 6)
    total_seconds = time.perf_counter() - t_begin
    tracked = sum(phases.values())
    phases["other"] = round(max(total_seconds - tracked, 0.0), 6)
    phases = {name: phases[name] for name in REPORT_PHASES}
    if tracked < MIN_TRACKED_SHARE * total_seconds:
        breakdown = ", ".join(
            f"{k}={v:.3f}s" for k, v in phases.items() if v > 0
        )
        raise RuntimeError(
            f"bench attribution failure on {size!r}: named phases cover "
            f"{tracked:.3f}s of {total_seconds:.3f}s "
            f"({tracked / total_seconds:.1%} < {MIN_TRACKED_SHARE:.0%}); "
            f"an untracked cost must be attributed ({breakdown})"
        )
    cg_iterations = int(sum(s.cg_iterations for s in history))

    if trace_path is not None:
        telemetry.write_trace(trace_path)

    record = {
        "size": size,
        "circuit": {
            "name": netlist.name,
            "movable_cells": int(netlist.num_movable),
            "fixed_cells": int(netlist.num_fixed),
            "nets": int(netlist.num_nets),
        },
        "seed": seed,
        "iterations": iterations,
        "converged": converged,
        "multilevel_levels": levels,
        "hpwl_m": global_hpwl,
        "final_hpwl_m": final_hpwl,
        "legalized": legalize,
        "cg_iterations": cg_iterations,
        "phases": phases,
        "phase_shares": phase_shares(phases, total_seconds),
        # Absolute wall time for the whole bench run (generation, both
        # placements, legalization, evaluation) — the headline "how long
        # did this size take" number the phases above fully attribute.
        "total_seconds": round(total_seconds, 6),
        "wall_seconds": {
            "instrumented": round(instrumented_s, 6),
            "noop": round(noop_s, 6),
            # > 0 means the instrumented run was slower; noisy on small
            # circuits, recorded for trend-watching rather than gating.
            # The repeat run reuses the instrumented run's setup (shared
            # ReuseContext), which also biases this estimate upward.
            "overhead_fraction": round(
                (instrumented_s - noop_s) / noop_s if noop_s > 0 else 0.0, 4
            ),
        },
        "vcycle_levels": _vcycle_breakdown(telemetry),
        "reuse": reuse.stats(),
        "machine": machine_context(),
        "determinism": {
            "hash": global_hash,
            "repeat_hash": repeat_hash,
            "deterministic": global_hash == repeat_hash,
        },
    }
    if profile:
        record["profile"] = {
            "place": _profile_top(prof_place),
            "legalize": _profile_top(prof_legalize) if legalize else [],
        }
    return record


def merge_batch_record(
    bench_path: Union[str, Path], record: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold a batch-engine run record into the bench report JSON.

    ``repro batch --record-bench BENCH_kraftwerk.json`` uses this to keep
    the batch-vs-serial wall-clock picture next to the per-phase kernel
    timings, in one regression file.  The record lands under a top-level
    ``"batch"`` key (replacing any previous one); the rest of the report is
    preserved, and a missing report file yields a minimal schema-tagged
    shell so the batch record can be committed before a full bench run.

    Compat shim: reports written by the pre-``repro-bench/2`` harness
    mirrored the first run's key fields at the top level; those mirror
    keys are stripped on rewrite and the schema tag is upgraded, so one
    ``--record-bench`` pass migrates an old file in place.
    """
    bench_path = Path(bench_path)
    if bench_path.exists():
        data = json.loads(bench_path.read_text(encoding="utf-8"))
        for legacy in _LEGACY_MIRROR_KEYS:
            data.pop(legacy, None)
        data["schema"] = BENCH_SCHEMA
    else:
        data = {"schema": BENCH_SCHEMA}
    record = dict(record)
    record.setdefault(
        "generated_at", time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    )
    # The full per-job trace lives in the run's own summary JSON; the
    # bench report keeps the headline scalars only.
    record.pop("jobs", None)
    data["batch"] = record
    if bench_path.parent != Path(""):
        bench_path.parent.mkdir(parents=True, exist_ok=True)
    bench_path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return data


def write_bench_report(
    sizes: Optional[Sequence[str]] = None,
    out_path: Union[str, Path] = "BENCH_kraftwerk.json",
    seed: int = 0,
    legalize: bool = True,
    trace_path: Optional[Union[str, Path]] = None,
    profile: bool = False,
) -> Dict[str, Any]:
    """Run the bench over ``sizes`` and write the JSON report.

    ``sizes`` defaults to the standard sweep (tiny/small/medium) so the
    committed report always carries the full scaling picture.  Since
    ``repro-bench/2`` the report is runs-only: per-size records live in
    ``runs`` and nothing is mirrored at the top level.
    """
    sizes = list(DEFAULT_SIZES) if sizes is None else list(sizes)
    runs = [
        run_bench(
            size,
            seed=seed,
            legalize=legalize,
            trace_path=trace_path if size == sizes[0] else None,
            profile=profile,
        )
        for size in sizes
    ]
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "sizes": list(sizes),
        "deterministic": all(r["determinism"]["deterministic"] for r in runs),
        "runs": runs,
    }
    out_path = Path(out_path)
    if out_path.exists():
        # A batch record merged via ``merge_batch_record`` survives report
        # regeneration; everything else is rewritten from this sweep.
        try:
            previous = json.loads(out_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            previous = {}
        if "batch" in previous:
            report["batch"] = previous["batch"]
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report

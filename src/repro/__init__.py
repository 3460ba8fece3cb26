"""repro — a full reproduction of "Generic Global Placement and Floorplanning"
(Eisenmann & Johannes, DAC 1998), the force-directed placer known as
Kraftwerk.

Quickstart::

    import repro

    result = repro.place("primary1", scale=0.2)   # place + legalize
    print(result.final_hpwl_m)

    with repro.Client.local() as client:          # many designs/seeds
        batch = client.map("tiny", seeds=range(8), workers=4)
    print(batch.best_hpwl_m, batch.median_hpwl_m)

Sub-packages:

- :mod:`repro.api` — the stable facade (``place`` and ``Client``).
- :mod:`repro.parallel` — the parallel batch-placement engine.
- :mod:`repro.core` — the force-directed global placer (the contribution).
- :mod:`repro.backend` — pluggable array backends (numpy / torch) for
  the field/solve hot path; see ``docs/BACKENDS.md``.
- :mod:`repro.netlist` — cells, nets, placements, benchmark generators.
- :mod:`repro.geometry` — rectangles, rows, regions, bin grids.
- :mod:`repro.timing` — Elmore delays, STA, timing-driven flows.
- :mod:`repro.legalize` — Abacus/Tetris legalization + detailed improvement.
- :mod:`repro.baselines` — GORDIAN, TimberWolf and SPEED reimplementations.
- :mod:`repro.congestion` / :mod:`repro.thermal` — map-driven placement.
- :mod:`repro.eco` — incremental (ECO) placement.
- :mod:`repro.floorplan` — mixed block/cell flow.
- :mod:`repro.evaluation` — wire length, overlap and report helpers.
- :mod:`repro.observability` — span timers, trace export and the
  ``repro bench`` regression harness.
- :mod:`repro.service` — the fault-tolerant placement service: supervised
  worker pool, retry/backoff, checkpoint migration, admission control,
  the ``repro-wire/1`` TCP front end and the result cache.
"""

from ._lazy import lazy_exports

__version__ = "1.3.0"

# Every name resolves from its module on first use (PEP 562), so
# ``import repro`` loads no sub-package, numpy or scipy, and a process
# loads only what it runs.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".backend": ("available_backends", "resolve_backend"),
    ".geometry": ("Grid", "PlacementRegion", "Rect"),
    ".netlist": (
        "Cell",
        "CellKind",
        "GeneratedCircuit",
        "GeneratorSpec",
        "MCNC_PROFILES",
        "Net",
        "Netlist",
        "NetlistBuilder",
        "Pin",
        "PinDirection",
        "Placement",
        "TIMING_CIRCUITS",
        "bench_scale",
        "generate_circuit",
        "make_circuit",
        "make_mixed_size_circuit",
        "make_suite",
    ),
    ".core": (
        "FAST_K",
        "HealthGuard",
        "KraftwerkPlacer",
        "NumericalHealthError",
        "PlacementResult",
        "PlacerCheckpoint",
        "PlacerConfig",
        "STANDARD_K",
        "load_checkpoint",
        "save_checkpoint",
    ),
    ".evaluation": (
        "distribution_stats",
        "format_table",
        "hpwl",
        "hpwl_meters",
        "is_evenly_distributed",
        "overlap_ratio",
        "percent_improvement",
        "total_overlap",
    ),
    ".legalize": ("TetrisLegalizer", "final_placement"),
    ".timing": (
        "ElmoreModel",
        "StaticTimingAnalyzer",
        "TimingDrivenPlacer",
        "exploitation_percent",
        "meet_timing_requirement",
    ),
    ".baselines": (
        "GordianConfig",
        "GordianPlacer",
        "SpeedPlacer",
        "TimberWolfConfig",
        "TimberWolfPlacer",
    ),
    ".congestion": ("CongestionDrivenPlacer", "ProbabilisticRouter"),
    ".thermal": ("HeatDrivenPlacer", "ThermalModel"),
    ".eco": ("NetlistDelta", "eco_place"),
    ".floorplan": ("MixedSizePlacer",),
    ".observability": (
        "NULL_TELEMETRY",
        "NullTelemetry",
        "SpanRecorder",
        "Telemetry",
        "read_trace_jsonl",
    ),
    ".api": (
        "Client",
        "FlowResult",
        "JobHandle",
        "place",
        "region_for_netlist",
        "resolve_source",
    ),
    ".parallel": ("BatchResult", "JobResult", "PlacementJob", "run_batch"),
    ".service": (
        "PlacementService",
        "RetryPolicy",
        "ServiceConfig",
        "ServiceJob",
        "serve_jobs",
    ),
})

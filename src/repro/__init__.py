"""repro — a full reproduction of "Generic Global Placement and Floorplanning"
(Eisenmann & Johannes, DAC 1998), the force-directed placer known as
Kraftwerk.

Quickstart::

    import repro

    result = repro.place("primary1", scale=0.2)   # place + legalize
    print(result.final_hpwl_m)

    batch = repro.place_many("tiny", seeds=range(8), workers=4)
    print(batch.best_hpwl_m, batch.median_hpwl_m)

Sub-packages:

- :mod:`repro.api` — the stable one-call facade (``place``/``place_many``).
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
- :mod:`repro.observability` — span timers, metric streams, trace export
  and the ``repro bench`` regression harness.
- :mod:`repro.service` — the fault-tolerant placement service: supervised
  worker pool, retry/backoff, checkpoint migration, admission control,
  the ``repro-wire/1`` TCP front end and the result cache.
"""

from .backend import available_backends, resolve_backend
from .geometry import Grid, PlacementRegion, Rect
from .netlist import (
    Cell,
    CellKind,
    GeneratedCircuit,
    GeneratorSpec,
    MCNC_PROFILES,
    Net,
    Netlist,
    NetlistBuilder,
    Pin,
    PinDirection,
    Placement,
    TIMING_CIRCUITS,
    bench_scale,
    generate_circuit,
    make_circuit,
    make_mixed_size_circuit,
    make_suite,
)
from .core import (
    FAST_K,
    HealthGuard,
    KraftwerkPlacer,
    NumericalHealthError,
    PlacementResult,
    PlacerCheckpoint,
    PlacerConfig,
    STANDARD_K,
    load_checkpoint,
    save_checkpoint,
)
from .evaluation import (
    distribution_stats,
    format_table,
    hpwl,
    hpwl_meters,
    is_evenly_distributed,
    overlap_ratio,
    percent_improvement,
    total_overlap,
)
from .legalize import TetrisLegalizer, final_placement
from .timing import (
    ElmoreModel,
    StaticTimingAnalyzer,
    TimingDrivenPlacer,
    exploitation_percent,
    meet_timing_requirement,
)
from .baselines import (
    GordianConfig,
    GordianPlacer,
    SpeedPlacer,
    TimberWolfConfig,
    TimberWolfPlacer,
)
from .congestion import CongestionDrivenPlacer, ProbabilisticRouter
from .thermal import HeatDrivenPlacer, ThermalModel
from .eco import NetlistDelta, eco_place
from .floorplan import MixedSizePlacer
from .observability import (
    NULL_TELEMETRY,
    NullTelemetry,
    SpanRecorder,
    Telemetry,
    read_trace_jsonl,
)
from .api import (
    Client,
    FlowResult,
    JobHandle,
    place,
    place_many,
    region_for_netlist,
    resolve_source,
)
from .parallel import (
    BatchResult,
    JobResult,
    PlacementJob,
    run_batch,
)
from .service import (
    PlacementService,
    RetryPolicy,
    ServiceConfig,
    ServiceJob,
    serve_jobs,
)

__version__ = "1.3.0"

__all__ = [
    "available_backends",
    "resolve_backend",
    "Grid",
    "PlacementRegion",
    "Rect",
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
    "distribution_stats",
    "format_table",
    "hpwl",
    "hpwl_meters",
    "is_evenly_distributed",
    "overlap_ratio",
    "percent_improvement",
    "total_overlap",
    "TetrisLegalizer",
    "final_placement",
    "ElmoreModel",
    "StaticTimingAnalyzer",
    "TimingDrivenPlacer",
    "exploitation_percent",
    "meet_timing_requirement",
    "GordianConfig",
    "GordianPlacer",
    "SpeedPlacer",
    "TimberWolfConfig",
    "TimberWolfPlacer",
    "CongestionDrivenPlacer",
    "ProbabilisticRouter",
    "HeatDrivenPlacer",
    "ThermalModel",
    "NetlistDelta",
    "eco_place",
    "MixedSizePlacer",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SpanRecorder",
    "Telemetry",
    "read_trace_jsonl",
    "Client",
    "FlowResult",
    "JobHandle",
    "place",
    "place_many",
    "region_for_netlist",
    "resolve_source",
    "BatchResult",
    "JobResult",
    "PlacementJob",
    "run_batch",
    "PlacementService",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceJob",
    "serve_jobs",
]

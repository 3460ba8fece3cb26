"""Parallel batch-placement engine.

Runs many placement jobs — multi-start seeds, K-sweeps, benchmark suites —
concurrently over a process pool with failure isolation, per-job
deadline/checkpoint support and merged observability.  See
:mod:`repro.parallel.engine` for the execution semantics,
:mod:`repro.parallel.jobs` for the (picklable, frozen) job/result specs
and :mod:`repro.parallel.pool` for the supervised worker processes.

Usage::

    from repro import PlacementJob, run_batch

    jobs = [PlacementJob(source="tiny", seed=s) for s in range(8)]
    batch = run_batch(jobs, workers=4)
    print(batch.best_hpwl_m, batch.median_hpwl_m, batch.speedup_estimate)

or, one level up, :meth:`repro.api.Client.map`.
"""

from .jobs import BATCH_SCHEMA, BatchResult, JobResult, PlacementJob
from .engine import ProgressCallback, resolve_workers, run_batch
from .pool import resolve_mp_context

__all__ = [
    "BATCH_SCHEMA",
    "BatchResult",
    "JobResult",
    "PlacementJob",
    "ProgressCallback",
    "resolve_mp_context",
    "resolve_workers",
    "run_batch",
]

"""The batch-execution engine: many placement jobs, one answer each.

The placer's flow level is embarrassingly parallel — multi-start seeds,
K-sweeps, benchmark suites — and each job is a deterministic pure function
of its spec, so fanning jobs over worker processes preserves bit-identical
per-job results at any worker count.  :func:`run_batch` runs a pooled
batch on a :class:`~repro.service.PlacementService` started for the call:
the service supervisor is the one loop that dispatches onto a
:class:`~repro.parallel.pool.WorkerPool`.  The call adds the batch-level
concerns:

- **worker-count / start-method control** — ``workers=None`` uses the CPU
  count, ``workers=0`` runs serially in-process (the determinism and
  wall-clock baseline), ``mp_context`` picks ``fork``/``spawn``/
  ``forkserver`` (``"auto"`` prefers ``fork`` where the OS offers it);
- **failure isolation** — a job that diverges (``NumericalHealthError``),
  rejects its input (``ValueError``) or raises anything else is returned
  as a failed :class:`~repro.parallel.jobs.JobResult`; a job whose worker
  dies fails alone as ``WorkerDeath``, and the slot respawns for the jobs
  left.  Its siblings finish unharmed.  A batch never retries a job, and
  its service has no result cache and sheds nothing;
- **deadline / checkpoint integration** — per-job deadlines ride in each
  job's config; ``checkpoint_dir`` gives every job a resumable
  :mod:`repro.core.checkpoint` snapshot path, and ``resume=True`` picks
  existing snapshots up, so an interrupted batch re-run skips finished
  work bit-identically;
- **streamed progress** — a ``progress(result, done, total)`` callback
  fires in the calling thread as each job completes;
- **merged observability** — every worker runs under a real telemetry
  recorder; per-job JSONL traces land in ``trace_dir`` and per-phase
  totals are merged into the batch summary.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..backend import resolve_backend
from .jobs import BatchResult, JobResult, PlacementJob

ProgressCallback = Callable[[JobResult, int, int], None]


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` → CPU count; ``0`` → serial; ``N >= 1`` → pool size."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return int(workers)


def _job_payload(
    job: PlacementJob,
    index: int,
    trace_dir: Optional[Path],
    keep_placements: bool,
    resume: bool,
) -> Dict[str, Any]:
    """Everything the worker needs, as one picklable dict."""
    name = job.display_name(index)
    return {
        "name": name,
        "index": index,
        "seed": int(job.seed),
        "source": job.source,
        "config": job.config_dict(),
        "legalize": job.legalize,
        "max_iterations": job.max_iterations,
        "scale": job.scale,
        "utilization": job.utilization,
        "inject_faults": tuple(job.inject_faults),
        "trace_path": str(trace_dir / f"{name}.trace.jsonl")
        if trace_dir is not None
        else None,
        "keep_placements": keep_placements,
        "resume": resume,
        # Set by the service when a client subscribed to this job before
        # dispatch; opens the placer's per-iteration observer gate.
        "stream_progress": False,
    }


def _import_job_stack() -> None:
    """Import every module :func:`_execute_job` runs.

    :meth:`WorkerPool.start` calls this before it forks, so each worker
    inherits the placer stack from its parent instead of importing scipy
    and the placer on its first job; :func:`run_batch` calls it before
    its clock starts.  The list follows the function-level imports of
    :func:`_execute_job`, :func:`repro.api.place` and the pool worker's
    entry point; a test pins that a job run after it imports nothing
    more.  The test oracles of :mod:`repro.testing` stay out.
    """
    from ..api import place  # noqa: F401
    from ..core import checkpoint, config, health, multilevel, placer  # noqa: F401
    from ..evaluation import wirelength  # noqa: F401
    from ..legalize import final_placement  # noqa: F401
    from ..netlist import placement  # noqa: F401
    from ..observability import Telemetry  # noqa: F401
    from ..testing import faults  # noqa: F401


def _execute_job(
    payload: Dict[str, Any],
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> JobResult:
    """Run one job to completion inside the current process.

    Top-level (pickle-importable) so it works under every start method.
    Any exception is converted into a failed :class:`JobResult`; nothing a
    single job does can take down the batch.

    *progress*, when given **and** the payload carries
    ``stream_progress=True``, receives one JSON-safe dict per placer
    transformation — the worker half of the streaming-progress bridge.
    Only the hook and the progress messages are gated: the job's
    telemetry recorder is always enabled, which opens the placer's
    observer gate, so the per-iteration stats are computed either way
    (ROADMAP item 6).
    """
    from contextlib import ExitStack

    from ..api import place
    from ..core.checkpoint import try_load_checkpoint
    from ..observability import Telemetry

    name = payload["name"]
    index = payload["index"]
    seed = payload["seed"]
    iteration_hook = None
    if progress is not None and payload.get("stream_progress"):
        def iteration_hook(stats, placement):  # noqa: ARG001 — placement unused
            progress({
                "iteration": stats.iteration,
                "hpwl_m": stats.hpwl_m,
                "overflow_fraction": stats.overflow_fraction,
                "max_force": stats.max_force,
                "seconds": round(stats.seconds, 6),
            })
    telemetry = Telemetry()
    t0 = time.perf_counter()
    try:
        resume_from = None
        resumed_iteration = None
        ckpt_path = payload["config"].get("checkpoint_path")
        if payload["resume"] and ckpt_path:
            # A missing or corrupt (torn-write) snapshot means "start
            # fresh", never "fail the job": fresh runs are bit-identical
            # to resumed ones, resume only saves the redone iterations.
            ckpt = try_load_checkpoint(ckpt_path)
            if ckpt is not None:
                resume_from = ckpt
                resumed_iteration = int(ckpt.iteration)
        with ExitStack() as stack:
            for site, kwargs in payload["inject_faults"]:
                stack.enter_context(_fault_context(site, **kwargs))
            flow = place(
                payload["source"],
                config=payload["config"],
                legalize=payload["legalize"],
                seed=seed,
                scale=payload["scale"],
                utilization=payload["utilization"],
                max_iterations=payload["max_iterations"],
                telemetry=telemetry,
                resume_from=resume_from,
                iteration_hook=iteration_hook,
            )
        trace_path = payload["trace_path"]
        if trace_path is not None:
            telemetry.write_trace(trace_path)
        totals = telemetry.spans.totals()
        phases = {
            phase: float(data.get("seconds", 0.0))
            for phase, data in totals.items()
        }
        return JobResult.from_flow(
            flow,
            name=name,
            index=index,
            keep_flow=payload["keep_placements"],
            seconds=time.perf_counter() - t0,
            trace_path=trace_path,
            phases=phases,
            resumed_iteration=resumed_iteration,
        )
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return _failed(
            payload, type(exc).__name__, str(exc),
            seconds=time.perf_counter() - t0,
        )


def _failed(
    payload: Dict[str, Any], error_type: str, error: str, seconds: float = 0.0
) -> JobResult:
    """The failed :class:`JobResult` of *payload*'s job."""
    return JobResult(
        name=payload["name"],
        index=payload["index"],
        seed=payload["seed"],
        ok=False,
        seconds=seconds,
        error=error,
        error_type=error_type,
    )


def _fault_context(site: str, **kwargs):
    """Resolve a job-spec fault name to its repro.testing.faults installer."""
    from ..testing.faults import resolve_fault

    return resolve_fault(site, **kwargs)


def run_batch(
    jobs: Sequence[PlacementJob],
    *,
    workers: Optional[int] = None,
    mp_context: str = "auto",
    trace_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
    keep_placements: bool = True,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 10,
    resume: bool = False,
) -> BatchResult:
    """Run *jobs* concurrently and return the merged :class:`BatchResult`.

    Results come back in job order regardless of completion order, so the
    HPWL list of a batch is reproducible at any worker count.  See the
    module docstring for the worker/isolation/checkpoint semantics.
    """
    jobs = list(jobs)
    # Fail fast on a missing accelerator: resolving each distinct backend
    # once here, in the parent, beats rediscovering the same ImportError
    # job by job after the pool has spun up.
    for backend_name in sorted(
        {j.config_dict().get("backend") or "" for j in jobs} - {""}
    ):
        resolve_backend(backend_name)
    n_workers = resolve_workers(workers)
    trace_path = Path(trace_dir) if trace_dir is not None else None
    if trace_path is not None:
        trace_path.mkdir(parents=True, exist_ok=True)
    if checkpoint_dir is not None:
        ckpt_dir = Path(checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        jobs = [
            job.with_checkpoint(ckpt_dir, job.display_name(i), checkpoint_every)
            for i, job in enumerate(jobs)
        ]
    total = len(jobs)
    results: List[Optional[JobResult]] = [None] * total
    done = 0

    def finish(index: int, result: JobResult) -> None:
        nonlocal done
        results[index] = result
        done += 1
        if progress is not None:
            progress(result, done, total)

    # Load the placer before the clock starts: ``wall_seconds`` and a
    # serial job's ``seconds`` time placement, not a first-use import.
    _import_job_stack()
    t0 = time.perf_counter()
    if n_workers == 0 or total <= 1:
        context_name = "serial"
        for i, job in enumerate(jobs):
            finish(i, _execute_job(
                _job_payload(job, i, trace_path, keep_placements, resume)
            ))
    else:
        context_name = _run_on_service(
            jobs, min(n_workers, total), mp_context, trace_path,
            keep_placements, resume, finish,
        )

    return BatchResult(
        jobs=tuple(results),  # type: ignore[arg-type]
        wall_seconds=time.perf_counter() - t0,
        workers=n_workers,
        mp_context=context_name,
    )


def _run_on_service(
    jobs: List[PlacementJob],
    workers: int,
    mp_context: str,
    trace_dir: Optional[Path],
    keep_placements: bool,
    resume: bool,
    finish: Callable[[int, JobResult], None],
) -> str:
    """Run each job once on a service started for this call, passing
    results to *finish* from this thread as they end; returns the start
    method.  The shutdown reaps every worker before the batch returns."""
    import queue

    from ..service import PlacementService, RetryPolicy, ServiceConfig

    config = ServiceConfig(
        workers=workers, mp_context=mp_context, trace_dir=trace_dir,
        retry=RetryPolicy(max_attempts=1), max_queue_depth=len(jobs),
        cache_bytes=0,  # the batch keeps every flow it returns itself
    )
    # Pinned names keep trace and checkpoint files named as in serial.
    jobs = [replace(job, name=job.display_name(i)) for i, job in enumerate(jobs)]
    ended: "queue.SimpleQueue" = queue.SimpleQueue()
    flows: Dict[int, Any] = {}
    with PlacementService(config) as service:
        for i, job in enumerate(jobs):
            sink = partial(flows.__setitem__, i) if keep_placements else None
            service.submit(job, job_id=str(i), resume=resume, on_flow=sink)
            service.on_terminal(str(i), ended.put)
        for _ in jobs:
            record = ended.get()
            i = int(record.job_id)
            finish(i, record.batch_result(jobs[i], i, flows.pop(i, None)))
    return service.pool.mp_context


__all__ = [
    "ProgressCallback",
    "resolve_workers",
    "run_batch",
]

"""Fault-tolerant placement service: supervisor, admission, wire.

This package keeps placing *indefinitely* under real-world failure —
worker processes that die, hang, start slowly, or tear a checkpoint
mid-write — without losing answers or changing them.  Its supervisor is
the one scheduler of pooled jobs: a pooled batch
(:func:`repro.parallel.run_batch`) runs on a service started for the
call.  The guarantees:

- every admitted job either completes with an HPWL **bit-identical** to a
  serial run of the same spec (retries and cross-worker checkpoint
  migration included), or fails with a structured, attributed reason;
- jobs the service cannot serve are shed at admission with a reason, not
  queued without bound;
- every lifecycle transition is one event in a JSONL trace, and the
  summary report is computed from the same counters the trace writes.

Layering (each module only knows the one below):

- :mod:`repro.parallel.pool` — supervised worker processes: pipes,
  heartbeats, sentinels, capped-backoff respawns;
- :mod:`~repro.service.supervisor` — the one loop that dispatches onto
  the pool: priority queue, per-job watchdogs, retry policy, checkpoint
  migration, result cache, drain, and failing queued jobs when no worker
  can start;
- :mod:`~repro.service.admission` — bounded queue, tenant quotas,
  lifecycle (accepting/draining/closed);
- :mod:`~repro.service.jobs` — job specs, retry policy, records;
- :mod:`~repro.service.cache` — signature-keyed ``FlowResult`` LRU;
- :mod:`~repro.service.progress` — per-job progress fan-out;
- :mod:`~repro.service.net` — the ``repro-wire/1`` TCP front end, the
  one way into a ``repro serve`` process.

Clients should reach all of this through :class:`repro.api.Client`.
"""

from .._lazy import lazy_exports

# Names resolve on first use (see :mod:`repro._lazy`): the client half of
# :mod:`~repro.service.net` loads neither the supervisor nor the placer.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".admission": ("AdmissionController", "AdmissionDecision", "SHED_REASONS"),
    ".cache": ("ResultCache", "job_signature"),
    ".jobs": (
        "FAILURE_CLASSES",
        "JOB_SCHEMA",
        "AttemptRecord",
        "JobRecord",
        "JobState",
        "RetryPolicy",
        "SERVICE_SCHEMA",
        "ServiceJob",
        "SubmitResult",
        "classify_failure",
    ),
    ".net": (
        "MAX_FRAME_BYTES",
        "PlacementServer",
        "WIRE_SCHEMA",
        "WireClient",
        "WireError",
    ),
    "..parallel.pool": ("WorkerDeath", "WorkerHandle", "WorkerPool"),
    ".progress": ("PROGRESS_EVENT", "ProgressBroker", "RESULT_EVENT"),
    ".supervisor": ("PlacementService", "ServiceConfig", "serve_jobs"),
})

"""Fault-tolerant placement service: supervisor, admission, wire.

The batch engine (:mod:`repro.parallel`) runs a fixed list of jobs and
exits; this package keeps placing *indefinitely* under real-world failure
— worker processes that die, hang, start slowly, or tear a checkpoint
mid-write — without losing answers or changing them.  The guarantees:

- every admitted job either completes with an HPWL **bit-identical** to a
  serial run of the same spec (retries and cross-worker checkpoint
  migration included), or fails with a structured, attributed reason;
- jobs the service cannot serve are shed at admission with a reason, not
  queued without bound;
- every lifecycle transition is one event in a JSONL trace, and the
  summary report is computed from the same counters the trace writes.

Layering (each module only knows the one below):

- :mod:`repro.parallel.pool` — supervised worker processes: pipes,
  heartbeats, sentinels, capped-backoff respawns.  The batch engine runs
  on the same pool, and imports point one way: service → parallel;
- :mod:`~repro.service.supervisor` — priority queue, per-job watchdogs,
  retry policy, checkpoint migration, result cache, drain;
- :mod:`~repro.service.admission` — bounded queue, tenant quotas,
  lifecycle (accepting/draining/closed);
- :mod:`~repro.service.jobs` — job specs, retry policy, records;
- :mod:`~repro.service.cache` — signature-keyed ``FlowResult`` LRU;
- :mod:`~repro.service.progress` — per-job progress fan-out;
- :mod:`~repro.service.net` — the ``repro-wire/1`` TCP front end, the
  one way into a ``repro serve`` process.

Clients should reach all of this through :class:`repro.api.Client`.
"""

from .admission import AdmissionController, AdmissionDecision, SHED_REASONS
from .cache import ResultCache, job_signature
from .jobs import (
    FAILURE_CLASSES,
    JOB_SCHEMA,
    AttemptRecord,
    JobRecord,
    JobState,
    RetryPolicy,
    SERVICE_SCHEMA,
    ServiceJob,
    SubmitResult,
    classify_failure,
)
from .net import (
    MAX_FRAME_BYTES,
    PlacementServer,
    WIRE_SCHEMA,
    WireClient,
    WireError,
)
from ..parallel.pool import WorkerDeath, WorkerHandle, WorkerPool
from .progress import PROGRESS_EVENT, ProgressBroker, RESULT_EVENT
from .supervisor import PlacementService, ServiceConfig, serve_jobs

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AttemptRecord",
    "FAILURE_CLASSES",
    "JOB_SCHEMA",
    "JobRecord",
    "JobState",
    "MAX_FRAME_BYTES",
    "PROGRESS_EVENT",
    "PlacementServer",
    "PlacementService",
    "ProgressBroker",
    "RESULT_EVENT",
    "ResultCache",
    "RetryPolicy",
    "SERVICE_SCHEMA",
    "SHED_REASONS",
    "ServiceJob",
    "ServiceConfig",
    "SubmitResult",
    "WIRE_SCHEMA",
    "WireClient",
    "WireError",
    "WorkerDeath",
    "WorkerHandle",
    "WorkerPool",
    "classify_failure",
    "job_signature",
    "serve_jobs",
]

"""Service-level job specs, retry policy and per-job records.

A service job is a :class:`~repro.parallel.jobs.PlacementJob` (the pure,
picklable spec a batch lists) wrapped with the serving concerns a bare
spec does not carry: identity (``job_id``), queue
``priority``, a ``tenant`` for quota accounting, a hard per-job wall-clock
``timeout_seconds`` watchdog, and a :class:`RetryPolicy`.

Because every job is a deterministic pure function of its spec (the
paper's generic-flow framing), retrying a job — on the same worker or a
migrated one — can never change its answer, only its wall-clock.  That is
what makes supervision at this level *sound*: the supervisor reasons
about processes and time; placement results stay bit-identical.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..parallel.jobs import JobResult, PlacementJob

if TYPE_CHECKING:
    from ..api import FlowResult

#: Service report schema.  ``/2`` adds the result-cache block, per-job
#: ``cached`` flags and p999 latency (PR 10); the report shape is
#: otherwise a superset of ``/1``.
SERVICE_SCHEMA = "repro-service/2"
#: Round-trip schema tag for :meth:`JobRecord.to_dict`.
JOB_SCHEMA = "repro-job/1"

#: Failure classes a finished attempt can be attributed to.  The first
#: three are the retryable-by-default ones; ``rejected`` (bad input, e.g.
#: ``ValueError``) and ``error`` (anything else) fail fast.
FAILURE_CLASSES = ("worker_death", "timeout", "numerical", "rejected", "error")


def classify_failure(error_type: Optional[str]) -> str:
    """Map a worker-reported exception type to a retry class.

    ``worker_death`` and ``timeout`` never reach here — the supervisor
    assigns those itself (the worker was killed and reported nothing).
    """
    if error_type == "NumericalHealthError":
        return "numerical"
    if error_type in ("ValueError", "TypeError", "SystemExit"):
        return "rejected"
    return "error"


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, on which failures, and with what backoff to retry.

    ``max_attempts`` counts the first attempt: 3 means one run plus up to
    two retries.  ``retry_on`` names failure classes (see
    :data:`FAILURE_CLASSES`); ``numerical`` is included by default
    because a :class:`~repro.core.health.NumericalHealthError` that
    escaped the in-process recovery ladder has already exhausted every
    rung — the one thing a retry adds is a fresh process (clean heap,
    no inherited allocator state), the classic crash-only remedy.
    Requeue delay grows exponentially and is capped:
    ``min(backoff_cap_s, backoff_base_s * 2**(attempt-1))``.
    """

    max_attempts: int = 3
    retry_on: Tuple[str, ...] = ("worker_death", "timeout", "numerical")
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        unknown = set(self.retry_on) - set(FAILURE_CLASSES)
        if unknown:
            raise ValueError(
                f"unknown retry classes {sorted(unknown)}; choose from "
                f"{FAILURE_CLASSES}"
            )

    def delay_s(self, attempt: int) -> float:
        """Requeue delay after failed attempt number *attempt* (1-based)."""
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, attempt - 1)),
        )

    def should_retry(self, failure_class: str, attempt: int) -> bool:
        """True if attempt number *attempt* (1-based) may be retried."""
        return attempt < self.max_attempts and failure_class in self.retry_on

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "retry_on": list(self.retry_on),
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "RetryPolicy":
        """The policy of a JSON ``retry`` object; a wrongly typed field
        raises ``ValueError`` naming it."""
        if not data:
            return cls()
        retry_on = data.get("retry_on", list(cls.retry_on))
        if not isinstance(retry_on, (list, tuple)) or not all(
            isinstance(name, str) for name in retry_on
        ):
            raise ValueError(
                "job spec field 'retry.retry_on' must be a list of strings, "
                f"not {retry_on!r}"
            )
        return cls(
            max_attempts=_spec_int(data, "max_attempts", 3, "retry."),
            retry_on=tuple(retry_on),
            backoff_base_s=_spec_number(
                data, "backoff_base_s", 0.05, "retry.", zero=True
            ),
            backoff_cap_s=_spec_number(
                data, "backoff_cap_s", 2.0, "retry.", zero=True
            ),
        )


def _spec_value(spec: Dict[str, Any], key: str, default: Any, kinds,
                what: str, prefix: str = "") -> Any:
    """``spec[key]`` (or *default*) if it is one of *kinds*; else a
    ``ValueError`` naming the field.  A bool is never an int here."""
    value = spec.get(key, default)
    if not isinstance(value, kinds) or (
        isinstance(value, bool) and bool not in kinds
    ):
        raise ValueError(
            f"job spec field {prefix + key!r} must be {what}, not "
            f"{type(value).__name__} {value!r}"
        )
    return value


def _spec_int(spec, key, default, prefix=""):
    return int(_spec_value(
        spec, key, default, (numbers.Integral,), "an integer", prefix
    ))


def _spec_number(spec, key, default, prefix="", zero=False):
    """A finite number above zero (or at least zero, with *zero*)."""
    value = _spec_value(spec, key, default, (numbers.Real,), "a number", prefix)
    if not math.isfinite(value) or value < 0 or (value == 0 and not zero):
        raise ValueError(
            f"job spec field {prefix + key!r} must be finite and "
            f"{'non-negative' if zero else 'positive'}, not {value!r}"
        )
    return value


@dataclass(frozen=True)
class ServiceJob:
    """One submitted unit of service work.

    ``job`` is the pure placement spec; everything else is scheduling
    metadata.  Lower ``priority`` runs first (0 is the default lane).
    ``timeout_seconds``/``retry`` of ``None`` fall back to the service
    defaults.
    """

    job: PlacementJob
    job_id: str
    priority: int = 0
    tenant: str = "default"
    timeout_seconds: Optional[float] = None
    retry: Optional[RetryPolicy] = None

    @classmethod
    def from_spec(cls, spec: Dict[str, Any], job_id: str) -> "ServiceJob":
        """Build from a JSON job spec (an entry of a ``repro serve --jobs``
        file, or the body of a ``repro-wire/1`` submit frame).

        ``netlist_text`` carries an inline design in the canonical repro
        netlist format (see :func:`repro.netlist.io.netlist_to_string`) —
        the way a wire client ships a live :class:`Netlist` that has no
        name resolvable server-side.  It wins over ``source``, and it is
        parsed through the design memo: resubmitting a design the server
        still holds costs a hash, not a parse.  A wrongly typed field
        raises ``ValueError`` naming it.
        """
        if not isinstance(spec, dict):
            raise ValueError(
                f"a job spec is a JSON object, not {type(spec).__name__}"
            )
        known = {
            "id", "source", "netlist_text", "seed", "config", "name",
            "legalize", "max_iterations", "scale", "utilization",
            "inject_faults", "priority", "tenant", "timeout_seconds",
            "retry",
        }
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown job-spec keys {sorted(unknown)}; known keys are "
                f"{sorted(known)}"
            )
        if "source" not in spec and "netlist_text" not in spec:
            raise ValueError("job spec needs a 'source' or 'netlist_text'")
        # Every field is type-checked here, so a wrongly typed one is
        # refused at submit instead of failing later in the supervisor or
        # a worker (a string timeout would stop the supervisor thread).
        for key in ("id", "name", "tenant", "source"):
            if key in spec:
                _spec_value(spec, key, None, (str,), "a string")
        for key in ("config", "retry"):
            _spec_value(spec, key, None, (dict, type(None)),
                        "an object or null")
        faults = spec.get("inject_faults", [])
        if not isinstance(faults, (list, tuple)) or not all(
            isinstance(hook, (list, tuple)) and len(hook) == 2
            and isinstance(hook[0], str) and isinstance(hook[1], dict)
            for hook in faults
        ):
            raise ValueError(
                "job spec field 'inject_faults' must be a list of "
                f"[site, kwargs] pairs, not {faults!r}"
            )
        max_iterations = (
            _spec_int(spec, "max_iterations", None)
            if "max_iterations" in spec else None
        )
        timeout = (
            _spec_number(spec, "timeout_seconds", None)
            if "timeout_seconds" in spec else None
        )
        if spec.get("netlist_text") is not None:
            from ..netlist.io import netlist_from_string

            source: Any = netlist_from_string(
                _spec_value(spec, "netlist_text", None, (str,), "a string")
            )
        else:
            source = spec["source"]
        job = PlacementJob(
            source=source,
            seed=_spec_int(spec, "seed", 0),
            config=spec.get("config"),
            name=spec.get("name") or job_id,
            legalize=_spec_value(spec, "legalize", True, (bool,), "a bool"),
            max_iterations=max_iterations,
            scale=float(_spec_number(spec, "scale", 0.2)),
            utilization=float(_spec_number(spec, "utilization", 0.8)),
            inject_faults=tuple(
                (site, dict(kwargs)) for site, kwargs in faults
            ),
        )
        retry = spec.get("retry")
        return cls(
            job=job,
            job_id=job_id,
            priority=_spec_int(spec, "priority", 0),
            tenant=spec.get("tenant", "default"),
            timeout_seconds=timeout,
            retry=RetryPolicy.from_dict(retry) if retry is not None else None,
        )

    def to_spec(self) -> Dict[str, Any]:
        """The JSON job spec this job round-trips through (inverse of
        :meth:`from_spec` — what a wire client puts in a submit frame).

        Name/path sources travel as strings; a live netlist travels as
        ``netlist_text``, its canonical text (computed once per netlist
        object and reused).  A ``(netlist, region)`` tuple source cannot
        serialize (explicit regions have no canonical text form) and
        raises ``ValueError`` — resolve it to a Bookshelf file first.
        """
        job = self.job
        spec: Dict[str, Any] = {"id": self.job_id}
        source = job.source
        if isinstance(source, (str,)) or hasattr(source, "__fspath__"):
            spec["source"] = str(source)
        else:
            netlist = getattr(source, "netlist", source)
            if isinstance(source, tuple) or not hasattr(netlist, "cells"):
                raise ValueError(
                    "cannot serialize a (netlist, region) tuple source; "
                    "use a name/path source or a bare Netlist"
                )
            from ..netlist.io import netlist_to_string

            spec["netlist_text"] = netlist_to_string(netlist)
        if job.seed:
            spec["seed"] = int(job.seed)
        if job.config is not None:
            spec["config"] = dict(job.config)
        if job.name:
            spec["name"] = job.name
        if not job.legalize:
            spec["legalize"] = False
        if job.max_iterations is not None:
            spec["max_iterations"] = job.max_iterations
        if job.scale != 0.2:
            spec["scale"] = job.scale
        if job.utilization != 0.8:
            spec["utilization"] = job.utilization
        if job.inject_faults:
            spec["inject_faults"] = [
                [site, dict(kwargs)] for site, kwargs in job.inject_faults
            ]
        if self.priority:
            spec["priority"] = self.priority
        if self.tenant != "default":
            spec["tenant"] = self.tenant
        if self.timeout_seconds is not None:
            spec["timeout_seconds"] = self.timeout_seconds
        if self.retry is not None:
            spec["retry"] = self.retry.to_dict()
        return spec


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    SHED = "shed"


@dataclass
class AttemptRecord:
    """One execution attempt of a job on one worker."""

    attempt: int
    worker_id: int
    dispatched_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    outcome: Optional[str] = None  # "done" or a failure class
    error: Optional[str] = None
    resumed_iteration: Optional[int] = None

    def summary(self) -> Dict[str, Any]:
        seconds = None
        if self.finished_at is not None:
            seconds = round(self.finished_at - self.dispatched_at, 6)
        return {
            "attempt": self.attempt,
            "worker": self.worker_id,
            "outcome": self.outcome,
            "error": self.error,
            "seconds": seconds,
            "resumed_iteration": self.resumed_iteration,
        }


@dataclass
class JobRecord:
    """Mutable supervisor-side state of one admitted job.

    ``result`` never holds a flow: records outlive the result cache's
    byte budget, so the coordinate arrays stay in the cache.
    """

    spec: ServiceJob
    seq: int
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.monotonic)
    finished_at: Optional[float] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    result: Optional[JobResult] = None
    failure_class: Optional[str] = None
    reason: Optional[str] = None
    not_before: float = 0.0  # earliest dispatch time (retry backoff)
    #: True when the job was answered from the result cache without
    #: dispatching (its flow is bit-identical to the run that seeded it).
    cached: bool = False
    #: Content signature of the job spec (``None`` when uncacheable).
    signature: Optional[str] = None

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-finish wall-clock, once the job reached an end state."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self) -> Dict[str, Any]:
        """The record's one JSON form (schema ``repro-job/1``).

        Wire ``result`` frames, the in-process terminal event, the service
        report's ``jobs`` and the CLI all use it:
        identity, scheduling state, terminal outcome and the embedded
        :meth:`JobResult.to_dict`.  The outcome scalars are repeated at
        the top level for readers that predate the embedded result.
        Worker-attempt timestamps are summarized, not round-tripped.
        """
        source = self.spec.job.source
        result = self.result.to_dict() if self.result is not None else None
        ok = self.state == JobState.DONE and result is not None
        return {
            "schema": JOB_SCHEMA,
            "job_id": self.job_id,
            "seq": self.seq,
            "source": source if isinstance(source, str) else None,
            "state": self.state.value,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "attempts": [a.summary() for a in self.attempts],
            "n_attempts": self.attempt_count,
            "latency_s": round(self.latency_s, 6)
            if self.latency_s is not None else None,
            "failure_class": self.failure_class,
            "reason": self.reason,
            "cached": self.cached,
            "signature": self.signature,
            "result": result,
            "hpwl_m": result["hpwl_m"] if ok else None,
            "legal_hpwl_m": result["legal_hpwl_m"] if ok else None,
            "final_hpwl_m": result["final_hpwl_m"] if ok else None,
            "iterations": result["iterations"] if ok else 0,
            "error": result["error"] if result is not None else self.reason,
            "error_type": result["error_type"] if result is not None else None,
        }

    def batch_result(
        self,
        job: PlacementJob,
        index: int,
        flow: Optional[FlowResult] = None,
    ) -> JobResult:
        """This record as job *index* of a batch that submitted *job*: the
        worker's result (with *flow*), or a failure that says why none came
        back (``WorkerDeath`` for a worker death)."""
        if self.result is not None:
            return replace(self.result, index=index, flow=flow)
        error_type = (
            "WorkerDeath" if self.failure_class == "worker_death"
            else self.failure_class or self.state.value
        )
        return JobResult(
            name=job.display_name(index), index=index, seed=job.seed,
            ok=False, error=self.reason, error_type=error_type,
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        """Rebuild a client-side view of the record from :meth:`to_dict`.

        The spec is reduced to identity + scheduling metadata (the pure
        job already ran server-side); ``latency_s`` is preserved via the
        stored value, attempt objects are not reconstructed.
        """
        schema = data.get("schema")
        if schema != JOB_SCHEMA:
            raise ValueError(
                f"expected schema {JOB_SCHEMA!r}, got {schema!r}"
            )
        job_id = str(data["job_id"])
        spec = ServiceJob(
            job=PlacementJob(
                source=data.get("source") or job_id, name=job_id
            ),
            job_id=job_id,
            priority=int(data.get("priority", 0)),
            tenant=str(data.get("tenant", "default")),
        )
        record = cls(spec=spec, seq=int(data.get("seq", 0)))
        record.state = JobState(data["state"])
        record.failure_class = data.get("failure_class")
        record.reason = data.get("reason")
        record.cached = bool(data.get("cached", False))
        record.signature = data.get("signature")
        latency = data.get("latency_s")
        record.submitted_at = 0.0
        record.finished_at = float(latency) if latency is not None else None
        result = data.get("result")
        if result is not None:
            record.result = JobResult.from_dict(result)
        return record


@dataclass(frozen=True)
class SubmitResult:
    """What :meth:`PlacementService.submit` returns: admitted or why not."""

    admitted: bool
    job_id: str
    reason: Optional[str] = None
    #: True when the submit was answered from the result cache (the job
    #: is already terminal by the time this returns).
    cached: bool = False


__all__ = [
    "AttemptRecord",
    "FAILURE_CLASSES",
    "JOB_SCHEMA",
    "JobRecord",
    "JobState",
    "RetryPolicy",
    "SERVICE_SCHEMA",
    "ServiceJob",
    "SubmitResult",
    "classify_failure",
]

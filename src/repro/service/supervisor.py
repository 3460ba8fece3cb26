"""The placement service supervisor: queue, retries, migration, drain.

This is the one loop that dispatches onto the supervised
:class:`~repro.parallel.pool.WorkerPool` (a pooled
:func:`repro.parallel.run_batch` runs on a service of its own).  Jobs are
admitted (or shed with a reason), queued by priority, dispatched, watched
against per-job wall-clock deadlines, and — when a worker dies or hangs
mid-job — retried under the job's :class:`~repro.service.jobs.RetryPolicy`
with capped exponential backoff.

**Migration** is the checkpoint story end to end: every admitted job gets
an atomic ``.npz`` snapshot path (unless its config already has one), the
placer saves every ``checkpoint_every`` iterations, and a retried attempt
runs with ``resume=True`` — so a job killed on worker A resumes on worker
B from its last committed snapshot.  Because snapshot replacement is
atomic and resumed runs are bit-identical to uninterrupted ones, the
*answer* never depends on how many times the job was killed; only its
wall-clock does.  A torn or corrupt snapshot degrades to a fresh start,
never to a wrong result.

Threading model: one background supervisor thread owns the pool and runs
the loop (promote backoff jobs → dispatch → wait → classify deaths →
watchdogs → respawn).  It waits on every worker pipe and process sentinel
plus a wake-up socket, so a worker message, a worker death, a submit or a
cancel each end the wait at once.  Client threads (submit/cancel/wait/
drain) only touch the job table under one condition variable, then wake
the loop; cross-thread pool operations (cancel and chaos kills) travel
through a command queue the loop drains on each pass.
"""

from __future__ import annotations

import heapq
import socket
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple, Union,
)

from ..observability.events import EventLog, latency_summary
from ..parallel.engine import _failed, _job_payload
from ..parallel.jobs import JobResult, PlacementJob
from ..parallel.pool import UNSENDABLE, WorkerDeath, WorkerHandle, WorkerPool
from .admission import AdmissionController
from .cache import ResultCache, job_signature
from .jobs import (
    SERVICE_SCHEMA,
    AttemptRecord,
    JobRecord,
    JobState,
    RetryPolicy,
    ServiceJob,
    SubmitResult,
    classify_failure,
)
from .progress import PROGRESS_EVENT, ProgressBroker, RESULT_EVENT

if TYPE_CHECKING:
    from ..api import FlowResult

#: Terminal job states — a record in one of these never changes again.
_TERMINAL = (JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.SHED)
#: Deaths in a row before ready, on every slot, that mean no worker can
#: start: the queued jobs then fail instead of waiting forever.
_START_ATTEMPTS = 3


class _Wakeup:
    """A self-pipe that ends the supervisor loop's wait early.

    A socket pair, because :func:`multiprocessing.connection.wait` accepts
    sockets on every platform.  Both ends are non-blocking: a wake-up
    that finds the buffer full is already pending.
    """

    def __init__(self):
        self._recv, self._send = socket.socketpair()
        self._recv.setblocking(False)
        self._send.setblocking(False)

    def fileno(self) -> int:
        return self._recv.fileno()

    def set(self) -> None:
        try:
            self._send.send(b"\0")
        except OSError:  # buffer full (already pending) or closed
            pass

    def clear(self) -> None:
        try:
            while self._recv.recv(4096):
                pass
        except OSError:  # drained
            pass

    def close(self) -> None:
        self._recv.close()
        self._send.close()


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the placement service, with serving-safe defaults."""

    workers: int = 2
    mp_context: str = "auto"
    #: Default per-job wall-clock watchdog (None = no deadline).  A job
    #: spec's own ``timeout_seconds`` overrides this.
    job_timeout_seconds: Optional[float] = None
    #: Default retry policy; a job spec's own ``retry`` overrides it.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_queue_depth: int = 64
    tenant_quota: Optional[int] = None
    #: Directory for per-job checkpoint snapshots (enables migration).
    checkpoint_dir: Optional[Union[str, Path]] = None
    checkpoint_every: int = 5
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Longest wait of the supervisor loop between housekeeping passes
    #: (job watchdogs, heartbeat checks, retry backoff, respawns).
    #: Submits, cancels and worker messages wake the loop at once, so
    #: this does not delay dispatch.
    tick_seconds: float = 0.02
    trace_dir: Optional[Union[str, Path]] = None
    #: Worker-scoped chaos installed in every pool worker (tests).
    inject_faults: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    #: Byte budget of the signature-keyed result cache (0 disables it).
    cache_bytes: int = 256 * 1024 * 1024

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "mp_context": self.mp_context,
            "job_timeout_seconds": self.job_timeout_seconds,
            "retry": self.retry.to_dict(),
            "max_queue_depth": self.max_queue_depth,
            "tenant_quota": self.tenant_quota,
            "checkpoint_dir": str(self.checkpoint_dir)
            if self.checkpoint_dir is not None else None,
            "checkpoint_every": self.checkpoint_every,
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
            "cache_bytes": self.cache_bytes,
        }


class PlacementService:
    """Supervised, fault-tolerant placement-as-a-service front end.

    Use as a context manager::

        with PlacementService(ServiceConfig(workers=2)) as svc:
            ticket = svc.submit(PlacementJob(source="tiny", seed=1))
            record = svc.wait(ticket.job_id)

    Everything observable — worker lifecycle, retries, sheds, latencies —
    flows through one :class:`~repro.observability.events.EventLog`, and
    :meth:`report` summarizes from the same counters the log writes, so
    report and trace cannot disagree.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        events: Optional[Union[EventLog, str, Path]] = None,
    ):
        self.config = config or ServiceConfig()
        if isinstance(events, EventLog):
            self.events = events
            self._owns_events = False
        else:
            self.events = EventLog(events)
            self._owns_events = True
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            tenant_quota=self.config.tenant_quota,
        )
        self.pool = WorkerPool(
            self.config.workers,
            mp_context=self.config.mp_context,
            backoff_base_s=self.config.backoff_base_s,
            backoff_cap_s=self.config.backoff_cap_s,
            inject_faults=self.config.inject_faults,
            events=self.events,
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_bytes)
            if self.config.cache_bytes > 0 else None
        )
        self.broker = ProgressBroker()
        self._watchers: Dict[str, List[Any]] = {}  # job_id -> callbacks
        self._flow_sinks: Dict[str, Callable[[FlowResult], None]] = {}
        self._resume_first: Set[str] = set()
        self._start_deaths = [0] * self.config.workers  # per slot
        self._cond = threading.Condition()
        self._records: Dict[str, JobRecord] = {}
        self._order: List[str] = []  # submission order, for reports
        self._ready: List[Tuple[int, int, str]] = []  # (priority, seq, id)
        self._delayed: List[JobRecord] = []  # waiting out retry backoff
        self._inflight: Dict[str, str] = {}  # token -> job_id
        self._commands: deque = deque()
        self._wakeup = _Wakeup()
        self._tenant_load: Counter = Counter()
        self._queued = 0  # jobs waiting (ready + delayed), for admission
        self._seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.queue_depth_max = 0
        self._started_wall: Optional[float] = None
        self._ckpt_dir = (
            Path(self.config.checkpoint_dir)
            if self.config.checkpoint_dir is not None else None
        )
        self._trace_dir = (
            Path(self.config.trace_dir)
            if self.config.trace_dir is not None else None
        )

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "PlacementService":
        if self._thread is not None:
            return self
        if self._ckpt_dir is not None:
            self._ckpt_dir.mkdir(parents=True, exist_ok=True)
        if self._trace_dir is not None:
            self._trace_dir.mkdir(parents=True, exist_ok=True)
        self._started_wall = time.perf_counter()
        self.events.emit(
            "service_start", workers=self.config.workers,
            mp_context=self.pool.mp_context,
            max_queue_depth=self.config.max_queue_depth,
        )
        self.pool.start()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="repro-service"
        )
        self._thread.start()
        return self

    def __enter__(self) -> "PlacementService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop the loop and the pool; fail whatever was still in flight."""
        if self._stop.is_set():
            return
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        self._wakeup.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._wakeup.close()
        self.pool.stop()
        self.admission.close()
        now = time.monotonic()
        with self._cond:
            for record in self._records.values():
                if record.state == JobState.RUNNING:
                    self._finalize_failure(
                        record, "error", "service_shutdown", now
                    )
                elif record.state == JobState.QUEUED:
                    record.state = JobState.CANCELLED
                    record.reason = "service_shutdown"
                    record.finished_at = now
                    self._tenant_load[record.spec.tenant] -= 1
                    self.events.emit(
                        "job_cancelled", job=record.job_id,
                        reason="service_shutdown",
                    )
                    self._job_terminal(record)
            self._cond.notify_all()
        self.events.emit("service_stop", **self.pool.counters())
        if self._owns_events:
            self.events.close()

    # -- client API ------------------------------------------------------
    def submit(
        self,
        job: Union[PlacementJob, ServiceJob],
        *,
        job_id: Optional[str] = None,
        priority: int = 0,
        tenant: str = "default",
        timeout_seconds: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        progress: Optional[Any] = None,
        resume: bool = False,
        on_flow: Optional[Callable[[FlowResult], None]] = None,
    ) -> SubmitResult:
        """Admit one job (or shed it with a structured reason).

        *progress*, when given, is subscribed to the job **before** it can
        dispatch, so the stream is complete from iteration one.  A job
        whose content signature is already in the result cache never
        dispatches at all: it goes terminal-DONE inside this call with the
        stored flow's scalars and positions hash (bit-identical to the run
        that seeded it) and ``SubmitResult.cached=True``.

        For in-process batches: ``resume=True`` lets the first attempt
        resume from an existing snapshot too, and *on_flow* (called under
        the lock) receives the finished job's flow, which the record never
        keeps.
        """
        # Signature first and outside the lock: hashing a big netlist must
        # not serialize other submitters behind the condition variable.
        raw_job = job.job if isinstance(job, ServiceJob) else job
        signature = (
            job_signature(raw_job) if self.cache is not None else None
        )
        cached_flow = self.cache.get(signature) if self.cache else None
        with self._cond:
            seq = self._seq + 1
            if isinstance(job, ServiceJob):
                spec = replace(
                    job, job_id=job_id or job.job_id or f"j{seq:05d}"
                )
            else:
                spec = ServiceJob(
                    job=job,
                    job_id=job_id or f"j{seq:05d}",
                    priority=priority,
                    tenant=tenant,
                    timeout_seconds=timeout_seconds,
                    retry=retry,
                )
            if spec.job_id in self._records:
                raise ValueError(f"duplicate job_id {spec.job_id!r}")
            # A spec that fails validation raises here, before anything is
            # registered: no record, subscription or sequence number.
            prepared = self._prepared(spec)
            self._seq = seq
            record = JobRecord(spec=spec, seq=seq, signature=signature)
            self._records[spec.job_id] = record
            self._order.append(spec.job_id)
            if progress is not None:
                self.broker.subscribe(spec.job_id, progress)
            if cached_flow is not None:
                if on_flow is not None:
                    on_flow(cached_flow)
                record.cached = True
                record.result = JobResult.from_flow(
                    cached_flow, name=spec.job.name or spec.job_id,
                    index=seq, keep_flow=False,
                )
                record.state = JobState.DONE
                record.finished_at = time.monotonic()
                self.events.emit(
                    "job_submit", job=spec.job_id, tenant=spec.tenant,
                    priority=spec.priority, queue_depth=self._queued,
                )
                self.events.emit(
                    "job_cache_hit", job=spec.job_id,
                    signature=signature,
                )
                self.events.emit(
                    "job_done", job=spec.job_id, attempt=0,
                    latency_s=round(record.latency_s, 6),
                    hpwl_m=record.result.final_hpwl_m, cached=True,
                )
                self._job_terminal(record)
                self._cond.notify_all()
                return SubmitResult(True, spec.job_id, cached=True)
            decision = self.admission.decide(
                spec.tenant, self._queued, self._tenant_load
            )
            if not decision.admitted:
                record.state = JobState.SHED
                record.reason = decision.reason
                record.finished_at = time.monotonic()
                self.events.emit(
                    "job_shed", job=spec.job_id, tenant=spec.tenant,
                    reason=decision.reason, queue_depth=self._queued,
                )
                self._job_terminal(record)
                return SubmitResult(False, spec.job_id, decision.reason)
            record.spec = prepared
            if on_flow is not None:
                self._flow_sinks[spec.job_id] = on_flow
            if resume:
                self._resume_first.add(spec.job_id)
            self._queued += 1
            self._tenant_load[spec.tenant] += 1
            self.queue_depth_max = max(self.queue_depth_max, self._queued)
            heapq.heappush(self._ready, (spec.priority, seq, spec.job_id))
            self.events.emit(
                "job_submit", job=spec.job_id, tenant=spec.tenant,
                priority=spec.priority, queue_depth=self._queued,
            )
            self._cond.notify_all()
            self._wakeup.set()
            return SubmitResult(True, spec.job_id)

    def _prepared(self, spec: ServiceJob) -> ServiceJob:
        """Pin the job's name and (if configured) its checkpoint path.

        The name becomes the job_id so traces/checkpoints stay stable
        across attempts; the checkpoint path is what makes migration
        possible at all.
        """
        job = spec.job
        if self._ckpt_dir is not None:
            job = job.with_checkpoint(
                self._ckpt_dir, spec.job_id, self.config.checkpoint_every
            )
        # config_dict() validates the config here, in submit, where a bad
        # key can raise to the caller instead of in the loop at dispatch.
        job = replace(
            job, config=job.config_dict(), name=job.name or spec.job_id
        )
        return replace(spec, job=job)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; True if the cancel took."""
        with self._cond:
            record = self._records.get(job_id)
            if record is None or record.state in _TERMINAL:
                return False
            if record.state == JobState.QUEUED:
                self._queued -= 1
            else:  # RUNNING: have the loop kill its worker
                token = f"{job_id}#a{record.attempt_count}"
                self._commands.append(("kill_token", token))
                self._wakeup.set()
            record.state = JobState.CANCELLED
            record.reason = "cancelled"
            record.finished_at = time.monotonic()
            self._tenant_load[record.spec.tenant] -= 1
            self.events.emit("job_cancelled", job=job_id, reason="cancelled")
            self._job_terminal(record)
            self._cond.notify_all()
            return True

    def subscribe(self, job_id: str, callback) -> Optional[Tuple[str, int]]:
        """Stream *job_id*'s progress/result events into *callback*.

        Returns an opaque handle for :meth:`unsubscribe`, or ``None`` when
        the job is already terminal — in which case the terminal ``result``
        event is delivered to *callback* immediately instead.  Callbacks
        run under the supervisor lock and must be non-blocking enqueues.
        """
        with self._cond:
            record = self._records.get(job_id)
            if record is not None and record.state in _TERMINAL:
                callback(self._terminal_event(record))
                return None
            return self.broker.subscribe(job_id, callback)

    def unsubscribe(self, handle: Optional[Tuple[str, int]]) -> None:
        self.broker.unsubscribe(handle)

    def on_terminal(self, job_id: str, callback) -> None:
        """Call ``callback(record)`` once *job_id* reaches a terminal
        state — immediately if it already has (no submit/register race).
        Callbacks run under the supervisor lock; enqueue and return."""
        with self._cond:
            record = self._records.get(job_id)
            if record is not None and record.state in _TERMINAL:
                callback(record)
                return
            self._watchers.setdefault(job_id, []).append(callback)

    def _terminal_event(self, record: JobRecord) -> Dict[str, Any]:
        return {
            "type": RESULT_EVENT,
            "job": record.job_id,
            "state": record.state.value,
            "record": record.to_dict(),
        }

    def _job_terminal(self, record: JobRecord) -> None:
        """Fan a terminal transition out: one ``result`` event to every
        subscriber, then the watcher callbacks, then drop the subs.
        Called under ``self._cond`` at *every* terminal transition."""
        self.broker.publish(record.job_id, self._terminal_event(record))
        self.broker.close_job(record.job_id)
        self._flow_sinks.pop(record.job_id, None)
        self._resume_first.discard(record.job_id)
        for callback in self._watchers.pop(record.job_id, ()):
            try:
                callback(record)
            except Exception:  # noqa: BLE001 — watcher death is its problem
                pass

    def kill_worker(self, slot: int, reason: str = "chaos") -> None:
        """Ask the loop to SIGKILL worker *slot* (chaos/ops entry point)."""
        with self._cond:
            self._commands.append(("kill_slot", slot, reason))
            self._cond.notify_all()
        self._wakeup.set()

    def wait(
        self, job_id: Optional[str] = None, timeout: Optional[float] = None
    ) -> Union[Optional[JobRecord], List[JobRecord]]:
        """Block until *job_id* (or every submitted job) is terminal.

        Returns the :class:`JobRecord` (or all records, submission order);
        ``None``/partial on timeout.
        """
        def one_done() -> bool:
            record = self._records.get(job_id)
            return record is not None and record.state in _TERMINAL

        def all_done() -> bool:
            return all(
                r.state in _TERMINAL for r in self._records.values()
            )

        with self._cond:
            predicate = all_done if job_id is None else one_done
            finished = self._cond.wait_for(predicate, timeout)
            if job_id is not None:
                return self._records.get(job_id) if finished else None
            return [self._records[i] for i in self._order]

    def drain(self, timeout: Optional[float] = None) -> List[JobRecord]:
        """Stop admitting, let admitted jobs finish, return all records."""
        self.admission.begin_drain()
        self.events.emit("service_drain")
        return self.wait(None, timeout)  # type: ignore[return-value]

    def record(self, job_id: str) -> Optional[JobRecord]:
        with self._cond:
            return self._records.get(job_id)

    # -- the supervisor loop ---------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            with self._cond:
                now = time.monotonic()
                self._run_commands(now)
                self._promote_delayed(now)
                self._dispatch_ready(now)
            # Wait outside the lock: the pool is loop-thread-only, and
            # submitters must not block on our wait.  A wake-up that comes
            # after the clear stays pending and ends the next wait at once.
            messages, deaths = self.pool.poll(
                self.config.tick_seconds, wakeup=self._wakeup
            )
            self._wakeup.clear()
            now = time.monotonic()
            with self._cond:
                for handle, message in messages:
                    self._on_message(handle, message, now)
                for death in deaths:
                    self._on_death(death, now)
                for death in self.pool.check_health(now):
                    self._on_death(death, now)
                self._check_job_timeouts(now)
                self.pool.maybe_respawn(now)
                self._cond.notify_all()

    def _run_commands(self, now: float) -> None:
        while self._commands:
            command = self._commands.popleft()
            if command[0] == "kill_slot":
                _, slot, reason = command
                handle = self.pool.handles[slot]
                if handle.state in ("starting", "idle", "busy"):
                    self._on_death(self.pool.kill(handle, reason), now)
            elif command[0] == "kill_token":
                _, token = command
                for handle in self.pool.handles:
                    if handle.state == "busy" and handle.token == token:
                        self._on_death(
                            self.pool.kill(handle, "cancelled"), now
                        )
                        break

    def _promote_delayed(self, now: float) -> None:
        still_waiting = []
        for record in self._delayed:
            if record.state != JobState.QUEUED:
                continue  # cancelled while backing off
            if record.not_before <= now:
                heapq.heappush(
                    self._ready,
                    (record.spec.priority, record.seq, record.job_id),
                )
            else:
                still_waiting.append(record)
        self._delayed = still_waiting

    def _dispatch_ready(self, now: float) -> None:
        idle = self.pool.idle_handles()
        while idle and self._ready:
            _, _, job_id = heapq.heappop(self._ready)
            record = self._records[job_id]
            if record.state != JobState.QUEUED or record.not_before > now:
                continue  # cancelled, or a stale heap entry
            handle = idle.pop()
            attempt = record.attempt_count + 1
            token = f"{job_id}#a{attempt}"
            resume = attempt > 1 or job_id in self._resume_first
            payload = _job_payload(
                record.spec.job,
                record.seq,
                self._trace_dir,
                # The flow travels back only when it can seed the cache or
                # its caller asked for it; otherwise results stay scalar.
                keep_placements=(
                    self.cache is not None and record.signature is not None
                ) or job_id in self._flow_sinks,
                resume=resume,
            )
            # Progress gating across the process boundary: the flag is
            # read once at dispatch; no subscriber means the worker sends
            # no progress messages and its placer skips the per-iteration
            # HPWL and max-force stats.
            payload["stream_progress"] = self.broker.has(job_id)
            record.attempts.append(
                AttemptRecord(
                    attempt=attempt,
                    worker_id=handle.worker_id,
                    dispatched_at=now,
                )
            )
            record.state = JobState.RUNNING
            self._queued -= 1
            try:
                self.pool.dispatch(handle, token, payload)
            except UNSENDABLE as exc:
                # The spec cannot cross the pipe; the loop lives on.
                idle.append(handle)
                record.result = _failed(payload, type(exc).__name__, str(exc))
                self._fail_attempt(
                    record, "rejected", f"{type(exc).__name__}: {exc}", now
                )
                continue
            self._inflight[token] = job_id
            self.events.emit(
                "job_start", job=job_id, attempt=attempt,
                worker=handle.worker_id, slot=handle.slot,
                resume=resume, queue_depth=self._queued,
            )

    def _on_message(
        self, handle: WorkerHandle, message: Tuple, now: float
    ) -> None:
        tag = message[0]
        if tag == "ready":
            self._start_deaths[handle.slot] = 0
        elif tag == "started":
            job_id = self._inflight.get(message[1])
            if job_id is not None:
                self._records[job_id].attempts[-1].started_at = now
        elif tag == "progress":
            token, data = message[1], message[2]
            job_id = self._inflight.get(token)
            if job_id is not None:
                self.broker.publish(
                    job_id,
                    {"type": PROGRESS_EVENT, "job": job_id, **data},
                )
        elif tag == "done":
            token, result = message[1], message[2]
            job_id = self._inflight.pop(token, None)
            if job_id is None:
                self.events.emit("stale_result", token=token)
                return
            record = self._records[job_id]
            attempt = record.attempts[-1]
            attempt.finished_at = now
            attempt.resumed_iteration = result.resumed_iteration
            if record.state == JobState.CANCELLED:
                self.events.emit("stale_result", token=token,
                                 reason="cancelled")
                return
            if result.ok:
                attempt.outcome = "done"
                record.state = JobState.DONE
                if result.flow is not None:
                    if self.cache is not None and record.signature is not None:
                        self.cache.put(record.signature, result.flow)
                    sink = self._flow_sinks.get(job_id)
                    if sink is not None:
                        sink(result.flow)
                    # The cache and the caller own the coordinate arrays
                    # from here; the record keeps scalars + positions hash,
                    # like a hit's record (records outlive the LRU budget).
                    result = replace(result, flow=None)
                record.result = result
                record.finished_at = now
                self._tenant_load[record.spec.tenant] -= 1
                self.events.emit(
                    "job_done", job=job_id, attempt=attempt.attempt,
                    latency_s=round(record.latency_s, 6),
                    hpwl_m=result.final_hpwl_m,
                    resumed_iteration=result.resumed_iteration,
                )
                self._job_terminal(record)
            else:
                record.result = result
                self._fail_attempt(
                    record,
                    classify_failure(result.error_type),
                    result.error,
                    now,
                )

    def _on_death(self, death: WorkerDeath, now: float) -> None:
        if death.token is None:
            # A worker died holding no job; the pool already logged it and
            # armed the backoff.
            self._on_start_death(death, now)
            return
        job_id = self._inflight.pop(death.token, None)
        if job_id is None:
            return
        record = self._records[job_id]
        attempt = record.attempts[-1]
        attempt.finished_at = now
        if record.state == JobState.CANCELLED:
            return  # the kill *was* the cancellation
        failure_class = (
            "timeout" if death.reason == "job_timeout" else "worker_death"
        )
        self._fail_attempt(record, failure_class, death.detail, now)

    def _on_start_death(self, death: WorkerDeath, now: float) -> None:
        """Once no slot can start a worker, fail every queued job with one
        attempt, never retried.  A ready report resets its slot's count."""
        self._start_deaths[death.slot] += 1
        if min(self._start_deaths) < _START_ATTEMPTS or self._inflight:
            return
        reason = f"no worker could start: {death.detail}"
        for record in self._records.values():
            if record.state == JobState.QUEUED:
                self._queued -= 1
                record.attempts.append(AttemptRecord(
                    record.attempt_count + 1, death.worker_id, now,
                    finished_at=now, outcome="worker_death", error=reason,
                ))
                self._finalize_failure(record, "worker_death", reason, now)

    def _check_job_timeouts(self, now: float) -> None:
        for handle in self.pool.handles:
            if handle.state != "busy" or handle.token is None:
                continue
            job_id = self._inflight.get(handle.token)
            if job_id is None:
                continue
            spec = self._records[job_id].spec
            timeout = (
                spec.timeout_seconds
                if spec.timeout_seconds is not None
                else self.config.job_timeout_seconds
            )
            if timeout is None:
                continue
            clock_start = handle.started_at or handle.dispatched_at
            if now - clock_start > timeout:
                self._on_death(self.pool.kill(handle, "job_timeout"), now)

    def _fail_attempt(
        self,
        record: JobRecord,
        failure_class: str,
        error: Optional[str],
        now: float,
    ) -> None:
        attempt = record.attempts[-1]
        attempt.outcome = failure_class
        attempt.error = error
        if attempt.finished_at is None:
            attempt.finished_at = now
        policy = record.spec.retry or self.config.retry
        n = record.attempt_count
        if policy.should_retry(failure_class, n):
            delay = policy.delay_s(n)
            record.state = JobState.QUEUED
            record.not_before = now + delay
            self._delayed.append(record)
            self._queued += 1
            self.queue_depth_max = max(self.queue_depth_max, self._queued)
            self.events.emit(
                "job_retry", job=record.job_id, attempt=n,
                failure_class=failure_class, delay_s=round(delay, 6),
                error=error,
            )
        else:
            self._finalize_failure(record, failure_class, error, now)

    def _finalize_failure(
        self,
        record: JobRecord,
        failure_class: str,
        error: Optional[str],
        now: float,
    ) -> None:
        record.state = JobState.FAILED
        record.failure_class = failure_class
        record.reason = error or failure_class
        record.finished_at = now
        self._tenant_load[record.spec.tenant] -= 1
        self.events.emit(
            "job_failed", job=record.job_id, failure_class=failure_class,
            attempts=record.attempt_count, error=error,
        )
        self._job_terminal(record)

    # -- reporting -------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The service summary (schema ``repro-service/2``), JSON-safe.

        Counter fields are read from the same :class:`EventLog` counters
        the JSONL trace was written from, so trace and report agree by
        construction — the chaos suite re-reads the file and asserts it.
        """
        with self._cond:
            records = [self._records[i] for i in self._order]
            by_state = Counter(r.state.value for r in records)
            shed_reasons = Counter(
                r.reason for r in records if r.state == JobState.SHED
            )
            failure_classes = Counter(
                r.failure_class
                for r in records
                if r.state == JobState.FAILED
            )
            latencies = [
                r.latency_s for r in records
                if r.state == JobState.DONE and r.latency_s is not None
            ]
            wall = (
                time.perf_counter() - self._started_wall
                if self._started_wall is not None else 0.0
            )
            return {
                "schema": SERVICE_SCHEMA,
                "config": self.config.to_dict(),
                "mp_context": self.pool.mp_context,
                "wall_seconds": round(wall, 6),
                "n_submitted": len(records),
                "n_done": by_state.get("done", 0),
                "n_failed": by_state.get("failed", 0),
                "n_cancelled": by_state.get("cancelled", 0),
                "n_shed": by_state.get("shed", 0),
                "retries": self.events.count("job_retry"),
                "worker": self.pool.counters(),
                "cache": self.cache.stats() if self.cache else None,
                "n_cache_hits": sum(1 for r in records if r.cached),
                "shed_reasons": dict(shed_reasons),
                "failure_classes": dict(failure_classes),
                "latency": latency_summary(latencies),
                "queue_depth_max": self.queue_depth_max,
                "events": dict(self.events.counters),
                "jobs": [r.to_dict() for r in records],
            }


def serve_jobs(
    jobs,
    *,
    config: Optional[ServiceConfig] = None,
    events: Optional[Union[EventLog, str, Path]] = None,
    chaos: Optional[Any] = None,
) -> Dict[str, Any]:
    """Convenience one-shot: submit *jobs*, drain, return the report.

    *jobs* is a sequence of :class:`PlacementJob`/:class:`ServiceJob`.
    *chaos*, when given, is called once with the running service after
    all submissions (test/CI hook for mid-flight fault injection).

    This is a thin wrapper over :class:`repro.api.Client` — the unified
    client surface; use it directly for anything beyond one-shot batches.
    """
    from ..api import Client

    with Client.local(service_config=config, events=events) as client:
        for index, job in enumerate(jobs):
            if isinstance(job, (PlacementJob, ServiceJob)):
                client.submit(job)
            else:  # a JSON job-spec dict (the ``repro serve --jobs`` format)
                spec = dict(job)
                job_id = str(spec.get("id") or f"j{index + 1:05d}")
                client.submit(ServiceJob.from_spec(spec, job_id=job_id))
        if chaos is not None:
            chaos(client.service)
        client.drain()
        report = client.report()
    return report


__all__ = ["PlacementService", "ServiceConfig", "serve_jobs"]

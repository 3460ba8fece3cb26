"""The supervised, persistent worker-process pool.

Every pooled job runs here, dispatched by one loop: the
:class:`repro.service.PlacementService` supervisor.  A long-lived service
keeps one pool for its lifetime and retries under its policy;
:func:`repro.parallel.run_batch` starts a service, and so a pool, for
each call, and fails the job of a worker that dies.  What the pool
guarantees:

- **a death costs one job** — a worker that exits, is killed or freezes
  is reaped on its own and reported as one :class:`WorkerDeath` that
  names the job it held; its slot respawns with capped exponential
  backoff, and every other worker and its job carry on;
- **workers outlive jobs** — a worker pays interpreter and numpy/scipy
  start-up once, then serves jobs until it is stopped;
- **a frozen worker is found** — one whose heartbeat goes stale for
  ``heartbeat_timeout`` is killed as ``hung``.

Plumbing choices are all in service of kill-safety:

- one duplex :func:`multiprocessing.Pipe` per worker — no shared queue,
  so a SIGKILL can never leave a cross-worker lock held;
- :func:`multiprocessing.connection.wait` over every pipe *and* every
  process sentinel at once, so spontaneous deaths wake the caller
  immediately instead of on a poll interval;
- a per-worker shared heartbeat timestamp, beaten by a daemon thread in
  the worker, distinguishing "process alive but frozen" (SIGSTOP, C-level
  deadlock — heartbeat goes stale) from "job still legitimately
  computing" (heartbeat fresh; per-job deadlines belong to the placer's
  ``deadline_seconds`` and the service's job watchdog, which know them).

The pool knows processes, pipes and time.  It does not know what a job
means: the service supervisor in :mod:`repro.service.supervisor` (retry
policy, priorities, admission, the start-failure rule) decides that.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Dict, List, Optional, Tuple

from ..observability.events import EventLog

#: Parent -> worker message tags.
_MSG_JOB = "job"
_MSG_STOP = "stop"
#: Worker -> parent message tags.
MSG_READY = "ready"
MSG_STARTED = "started"
MSG_DONE = "done"
MSG_PROGRESS = "progress"

#: Worker slot lifecycle states.
STARTING, IDLE, BUSY, DOWN, STOPPED = (
    "starting", "idle", "busy", "down", "stopped"
)

#: What :meth:`WorkerPool.dispatch` raises for a payload that cannot be
#: pickled (for instance a netlist with a name its canonical text cannot
#: carry).  Nothing was sent, so the worker stays idle.
UNSENDABLE = (pickle.PicklingError, AttributeError, TypeError, ValueError)


def resolve_mp_context(name: str = "auto") -> mp.context.BaseContext:
    """Pick a multiprocessing start method.

    ``"auto"`` prefers ``fork`` (cheap on Linux: workers inherit the loaded
    numpy/scipy images) and falls back to ``spawn`` elsewhere.  Explicit
    names are validated against what the platform offers.
    """
    methods = mp.get_all_start_methods()
    if name == "auto":
        name = "fork" if "fork" in methods else "spawn"
    if name not in methods:
        raise ValueError(
            f"start method {name!r} not available here; choose from {methods}"
        )
    return mp.get_context(name)


def _pool_worker_main(slot: int, worker_id: int, conn, heartbeat, init) -> None:
    """Worker process entry point (top-level: spawn/forkserver-picklable).

    Re-installs fault hooks (env specs first, then pool-level specs from
    *init*), starts the heartbeat thread, reports ready, then serves jobs
    until told to stop or the parent disappears.
    """
    import threading

    from ..core import health
    from ..testing import faults
    from .engine import _execute_job

    faults.install_env_hooks()
    faults.install_process_faults(list(init.get("inject_faults", ())))

    if health._FAULT_HOOKS:
        health.fire_hook("worker_start", worker_id)  # slow_start chaos

    stop_beating = threading.Event()
    interval = float(init.get("heartbeat_interval", 0.1))

    def beat() -> None:
        while not stop_beating.is_set():
            heartbeat.value = time.monotonic()
            stop_beating.wait(interval)

    threading.Thread(target=beat, daemon=True, name="heartbeat").start()

    try:
        conn.send((MSG_READY, worker_id, os.getpid()))
        while True:
            message = conn.recv()
            if message[0] == _MSG_STOP:
                break
            _, token, payload = message
            if health._FAULT_HOOKS:
                health.fire_hook("worker_job", worker_id, token)
            conn.send((MSG_STARTED, token))
            progress = None
            if payload.get("stream_progress"):
                def progress(data, _token=token):
                    # Pipe sends are small and the parent drains eagerly;
                    # a send that fails means the parent is gone and the
                    # main recv loop will notice on its next call.
                    try:
                        conn.send((MSG_PROGRESS, _token, data))
                    except (OSError, ValueError, BrokenPipeError):
                        pass
            result = _execute_job(payload, progress=progress)
            conn.send((MSG_DONE, token, result))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away; nothing to report to
    finally:
        stop_beating.set()
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class WorkerDeath:
    """One worker-process death, spontaneous or supervisor-inflicted."""

    slot: int
    worker_id: int
    token: Optional[str]  # in-flight job token, if any
    exitcode: Optional[int]
    reason: str  # "died" | "job_timeout" | "hung" | "start_timeout" | ...
    restart_delay_s: float

    @property
    def detail(self) -> str:
        """``"worker N <reason> (exit C)"`` — the failure text of its job."""
        text = f"worker {self.worker_id} {self.reason}"
        if self.exitcode is not None:
            text += f" (exit {self.exitcode})"
        return text


@dataclass
class WorkerHandle:
    """Parent-side state of one worker slot."""

    slot: int
    worker_id: int = -1
    process: Any = None
    conn: Any = None
    heartbeat: Any = None
    state: str = DOWN
    token: Optional[str] = None
    dispatched_at: float = 0.0
    started_at: Optional[float] = None
    spawned_at: float = 0.0
    consecutive_failures: int = 0
    restart_not_before: float = 0.0


class WorkerPool:
    """N supervised worker slots with heartbeat/readiness bookkeeping."""

    def __init__(
        self,
        workers: int,
        *,
        mp_context: str = "auto",
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: float = 5.0,
        start_timeout: float = 30.0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        inject_faults: Tuple[Tuple[str, Dict[str, Any]], ...] = (),
        events: Optional[EventLog] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._ctx = resolve_mp_context(mp_context)
        self.mp_context = self._ctx.get_start_method()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.start_timeout = start_timeout
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.inject_faults = tuple(inject_faults)
        self.events = events if events is not None else EventLog()
        self.handles = [WorkerHandle(slot=i) for i in range(workers)]
        self._next_worker_id = 0
        # Lifetime counters (spawns includes the initial fleet).
        self.spawns = 0
        self.deaths = 0
        self.restarts = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self.mp_context == "fork":
            # A forked worker starts with its parent's modules: load the
            # job stack once here rather than once per worker and job.
            from .engine import _import_job_stack

            _import_job_stack()
        for handle in self.handles:
            self._spawn(handle)

    def _spawn(self, handle: WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        heartbeat = self._ctx.Value("d", time.monotonic())
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        init = {
            "heartbeat_interval": self.heartbeat_interval,
            "inject_faults": self.inject_faults,
        }
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(handle.slot, worker_id, child_conn, heartbeat, init),
            name=f"repro-worker-{handle.slot}-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # our copy; the child keeps its own
        handle.worker_id = worker_id
        handle.process = process
        handle.conn = parent_conn
        handle.heartbeat = heartbeat
        handle.state = STARTING
        handle.token = None
        handle.started_at = None
        handle.spawned_at = time.monotonic()
        self.spawns += 1
        self.events.emit(
            "worker_spawn", slot=handle.slot, worker=worker_id,
            pid=process.pid,
        )

    def stop(self, timeout: float = 2.0) -> None:
        """Stop every worker: polite to the idle, SIGKILL to the rest."""
        for handle in self.handles:
            if handle.state in (IDLE, STARTING) and handle.conn is not None:
                try:
                    handle.conn.send((_MSG_STOP,))
                except (OSError, ValueError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + timeout
        for handle in self.handles:
            if handle.process is None:
                continue
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
            handle.state = STOPPED

    # -- scheduling ------------------------------------------------------
    def idle_handles(self) -> List[WorkerHandle]:
        return [h for h in self.handles if h.state == IDLE]

    def alive_count(self) -> int:
        return sum(1 for h in self.handles if h.state in (STARTING, IDLE, BUSY))

    def dispatch(
        self, handle: WorkerHandle, token: str, payload: Dict[str, Any]
    ) -> None:
        """Send one job to an idle worker (caller picked the handle)."""
        if handle.state != IDLE:
            raise RuntimeError(
                f"dispatch to worker slot {handle.slot} in state "
                f"{handle.state!r}"
            )
        handle.conn.send((_MSG_JOB, token, payload))
        handle.state = BUSY
        handle.token = token
        handle.dispatched_at = time.monotonic()
        handle.started_at = None

    # -- observation -----------------------------------------------------
    def poll(
        self, timeout: float, wakeup: Any = None
    ) -> Tuple[List[Tuple[WorkerHandle, Tuple]], List[WorkerDeath]]:
        """Wait up to *timeout* for messages or deaths; process both.

        Messages update handle state (ready/started/done) before being
        returned, so the supervisor sees a consistent picture.  Deaths of
        non-stopped workers are reaped (state ``DOWN``, backoff armed).
        *wakeup* is one more object for :func:`multiprocessing.connection
        .wait`; when it becomes readable the wait ends early, and the
        caller drains it.
        """
        waitables = [] if wakeup is None else [wakeup]
        by_waitable = {}
        for handle in self.handles:
            if handle.state in (STARTING, IDLE, BUSY):
                by_waitable[handle.conn] = handle
                by_waitable[handle.process.sentinel] = handle
                waitables.extend((handle.conn, handle.process.sentinel))
        if not waitables:
            time.sleep(timeout)
            return [], []
        ready = connection.wait(waitables, timeout)
        messages: List[Tuple[WorkerHandle, Tuple]] = []
        maybe_dead: List[WorkerHandle] = []
        seen_dead = set()
        for waitable in ready:
            if waitable is wakeup:
                continue
            handle = by_waitable[waitable]
            if waitable is handle.conn:
                try:
                    while handle.conn.poll():
                        message = handle.conn.recv()
                        self._apply_message(handle, message)
                        messages.append((handle, message))
                except (EOFError, OSError):
                    if id(handle) not in seen_dead:
                        seen_dead.add(id(handle))
                        maybe_dead.append(handle)
            else:  # process sentinel became ready: the worker exited
                if id(handle) not in seen_dead:
                    seen_dead.add(id(handle))
                    maybe_dead.append(handle)
        deaths = []
        for handle in maybe_dead:
            # Drain any result the worker managed to send before dying —
            # a completed job must not be retried just because the worker
            # died immediately after reporting it.
            try:
                while handle.conn is not None and handle.conn.poll():
                    message = handle.conn.recv()
                    self._apply_message(handle, message)
                    messages.append((handle, message))
            except (EOFError, OSError):
                pass
            if handle.process is not None and not handle.process.is_alive():
                deaths.append(self._reap(handle, reason="died"))
        return messages, deaths

    def _apply_message(self, handle: WorkerHandle, message: Tuple) -> None:
        tag = message[0]
        if tag == MSG_READY:
            handle.state = IDLE
            self.events.emit(
                "worker_ready", slot=handle.slot, worker=handle.worker_id,
                startup_s=round(time.monotonic() - handle.spawned_at, 6),
            )
        elif tag == MSG_STARTED:
            if message[1] == handle.token:
                handle.started_at = time.monotonic()
        elif tag == MSG_DONE:
            if message[1] == handle.token:
                handle.token = None
                handle.state = IDLE
                handle.consecutive_failures = 0  # survived a full job

    # -- failure handling ------------------------------------------------
    def kill(self, handle: WorkerHandle, reason: str) -> WorkerDeath:
        """SIGKILL a worker now (watchdog/chaos path) and reap it."""
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(5.0)
        return self._reap(handle, reason=reason)

    def _reap(self, handle: WorkerHandle, reason: str) -> WorkerDeath:
        token = handle.token
        exitcode = (
            handle.process.exitcode if handle.process is not None else None
        )
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None
        handle.consecutive_failures += 1
        delay = min(
            self.backoff_cap_s,
            self.backoff_base_s
            * (2.0 ** max(0, handle.consecutive_failures - 1)),
        )
        handle.restart_not_before = time.monotonic() + delay
        death = WorkerDeath(
            slot=handle.slot,
            worker_id=handle.worker_id,
            token=token,
            exitcode=exitcode,
            reason=reason,
            restart_delay_s=delay,
        )
        handle.state = DOWN
        handle.token = None
        self.deaths += 1
        self.events.emit(
            "worker_death", slot=handle.slot, worker=handle.worker_id,
            exitcode=exitcode, reason=reason, token=token,
            restart_delay_s=round(delay, 6),
        )
        return death

    def check_health(self, now: float) -> List[WorkerDeath]:
        """Kill frozen (stale-heartbeat) and stuck-starting workers.

        A *busy* worker with a fresh heartbeat is healthy here even if its
        job is slow — per-job wall-clock is the supervisor's watchdog.
        """
        deaths = []
        for handle in self.handles:
            if handle.state in (IDLE, BUSY):
                if now - handle.heartbeat.value > self.heartbeat_timeout:
                    deaths.append(self.kill(handle, reason="hung"))
            elif handle.state == STARTING:
                stale = now - handle.heartbeat.value > self.heartbeat_timeout
                if now - handle.spawned_at > self.start_timeout and stale:
                    deaths.append(self.kill(handle, reason="start_timeout"))
        return deaths

    def maybe_respawn(self, now: float) -> int:
        """Respawn DOWN slots whose backoff has elapsed; returns count."""
        respawned = 0
        for handle in self.handles:
            if handle.state == DOWN and now >= handle.restart_not_before:
                previous = handle.worker_id
                self._spawn(handle)
                self.restarts += 1
                respawned += 1
                self.events.emit(
                    "worker_restart", slot=handle.slot,
                    worker=handle.worker_id, previous_worker=previous,
                    restarts_in_a_row=handle.consecutive_failures,
                )
        return respawned

    def counters(self) -> Dict[str, int]:
        return {
            "spawns": self.spawns,
            "deaths": self.deaths,
            "restarts": self.restarts,
        }


__all__ = [
    "MSG_DONE",
    "MSG_PROGRESS",
    "MSG_READY",
    "MSG_STARTED",
    "UNSENDABLE",
    "WorkerDeath",
    "WorkerHandle",
    "WorkerPool",
    "resolve_mp_context",
]

"""Per-job progress fan-out: the bridge from worker iterations to clients.

The placer already has an observer-gated per-iteration stats path:
HPWL/force diagnostics are computed only when somebody is watching.  This
module extends that gating across the process boundary:

- a client subscribes to a job → the broker has a callback for it → the
  supervisor dispatches the job with ``stream_progress=True`` → the worker
  threads an ``iteration_hook`` into the placer → one small dict per
  transformation travels worker → supervisor → broker → subscriber;
- nobody subscribes → the payload flag stays ``False`` → the worker passes
  ``iteration_hook=None`` and sends no progress messages, and the placer
  skips the HPWL/force stats (the worker's telemetry records spans only
  and does not open the gate).

Callbacks run inline where the supervisor publishes (under its condition
variable), so they must be non-blocking — enqueue and return.  Both
consumers honor that: the network server appends to a per-connection
outbox queue, the in-process client appends to a ``queue.Queue``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

ProgressCallback = Callable[[Dict[str, Any]], None]

#: Event kinds a subscriber sees. ``progress`` is per-iteration; one
#: terminal ``result`` event always ends the stream.
PROGRESS_EVENT = "progress"
RESULT_EVENT = "result"


class ProgressBroker:
    """Thread-safe registry of per-job progress subscribers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._subs: Dict[str, List[Tuple[int, ProgressCallback]]] = {}
        self._ids = itertools.count(1)

    def subscribe(
        self, job_id: str, callback: ProgressCallback
    ) -> Tuple[str, int]:
        """Register *callback* for *job_id*; returns an opaque handle."""
        with self._lock:
            handle_id = next(self._ids)
            self._subs.setdefault(job_id, []).append((handle_id, callback))
            return (job_id, handle_id)

    def unsubscribe(self, handle: Optional[Tuple[str, int]]) -> None:
        if handle is None:
            return
        job_id, handle_id = handle
        with self._lock:
            subs = self._subs.get(job_id)
            if not subs:
                return
            subs[:] = [s for s in subs if s[0] != handle_id]
            if not subs:
                del self._subs[job_id]

    def has(self, job_id: str) -> bool:
        """True when at least one subscriber watches *job_id* — the gate
        the supervisor reads at dispatch time."""
        with self._lock:
            return bool(self._subs.get(job_id))

    def subscriber_count(self, job_id: str) -> int:
        with self._lock:
            return len(self._subs.get(job_id, ()))

    def publish(self, job_id: str, event: Dict[str, Any]) -> None:
        """Deliver one event to every subscriber of *job_id*.

        A callback that raises (e.g. its connection just died) is dropped
        from the registry instead of poisoning the publisher — the server
        cleans its own side up on disconnect, this is the backstop.
        """
        with self._lock:
            subs = list(self._subs.get(job_id, ()))
        dead = []
        for handle_id, callback in subs:
            try:
                callback(event)
            except Exception:  # noqa: BLE001 — subscriber death is routine
                dead.append((job_id, handle_id))
        for handle in dead:
            self.unsubscribe(handle)

    def close_job(self, job_id: str) -> None:
        """Drop every subscription of a terminal job."""
        with self._lock:
            self._subs.pop(job_id, None)


__all__ = [
    "PROGRESS_EVENT",
    "ProgressBroker",
    "ProgressCallback",
    "RESULT_EVENT",
]

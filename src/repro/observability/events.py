"""Service lifecycle event log: append-only JSONL + in-memory counters.

The placement service (:mod:`repro.service`) emits one event per state
transition — worker spawn/death/restart, job submit/start/retry/done/
failed/shed, queue-depth samples — through a single :class:`EventLog`.
The log serves three consumers at once:

- **operations**: every event can stream to a JSONL file as it happens
  (line-buffered, one JSON object per line, ``repro-events/1`` schema),
- **reporting**: per-event-type counters and recorded job latencies feed
  the service summary (p50/p99, retry/restart/shed counts) — and because
  counters increment exactly when events are written, the summary is
  consistent with the trace *by construction*, which the chaos suite
  asserts,
- **tests**: the in-memory event list lets assertions read the exact
  recovery sequence ("worker_death then job_retry then job_done") instead
  of inferring it from end state.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

EVENT_SCHEMA = "repro-events/1"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = max(1, int(-(-q * len(ordered) // 100)))  # ceil without floats
    return float(ordered[min(rank, len(ordered)) - 1])


def latency_summary(values: Sequence[float]) -> Dict[str, Any]:
    """p50/p99/p999/mean/max over job latencies (all ``None`` when empty)."""
    if not values:
        return {"n": 0, "p50_s": None, "p99_s": None, "p999_s": None,
                "mean_s": None, "max_s": None}
    return {
        "n": len(values),
        "p50_s": round(percentile(values, 50), 6),
        "p99_s": round(percentile(values, 99), 6),
        "p999_s": round(percentile(values, 99.9), 6),
        "mean_s": round(sum(values) / len(values), 6),
        "max_s": round(max(values), 6),
    }


class EventLog:
    """Thread-safe event sink with optional JSONL streaming.

    Events are plain dicts ``{"t": wall_clock, "event": name, **fields}``.
    Thread safety matters here: the supervisor loop, the submitting
    client thread, and test assertions all touch the log concurrently.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self._lock = threading.Lock()
        self.events: List[Dict[str, Any]] = []
        self.counters: Counter = Counter()
        self._file = None
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            if self.path.parent != Path(""):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
            self._write({"t": time.time(), "event": "log_open",
                         "schema": EVENT_SCHEMA})

    def _write(self, record: Dict[str, Any]) -> None:
        if self._file is not None:
            self._file.write(json.dumps(record, sort_keys=True) + "\n")
            self._file.flush()

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the record dict."""
        record = {"t": time.time(), "event": event, **fields}
        with self._lock:
            self.events.append(record)
            self.counters[event] += 1
            self._write(record)
        return record

    def count(self, event: str) -> int:
        with self._lock:
            return self.counters[event]

    def of_type(self, event: str) -> List[Dict[str, Any]]:
        with self._lock:
            return [e for e in self.events if e["event"] == event]

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "latency_summary",
    "percentile",
]

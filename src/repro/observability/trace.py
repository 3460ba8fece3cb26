"""Trace export: one JSONL event stream per telemetry recorder.

One event per line, plain text so it diffs and greps well: a header,
then one event per span carrying name, depth, start offset, duration and
counters.  This is the raw material for flame-graph style analysis.

The reader (:func:`read_trace_jsonl`) round-trips the writer's output and
is what the tests rely on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

PathLike = Union[str, Path]

TRACE_SCHEMA = "repro-trace/1"


def span_events(recorder) -> List[Dict[str, Any]]:
    """Flatten a recorder's span forest to serializable event dicts.

    Timestamps (``ts``) are offsets from the earliest recorded span start,
    so traces are comparable across runs regardless of clock origin.
    """
    roots = getattr(recorder, "roots", [])
    if not roots:
        return []
    origin = min(span.start for span in roots)
    events = []
    for depth, span in recorder.walk():
        event: Dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "depth": depth,
            "ts": span.start - origin,
            "dur": span.seconds,
        }
        if span.counters:
            event["counters"] = dict(span.counters)
        events.append(event)
    return events


def write_trace_jsonl(path: PathLike, telemetry) -> Path:
    """Write the full trace (header + span events) as JSONL."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    events: List[Dict[str, Any]] = [{"type": "header", "schema": TRACE_SCHEMA}]
    events.extend(span_events(telemetry.spans))
    with path.open("w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def read_trace_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back to its event dicts (blank lines skipped)."""
    events = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events

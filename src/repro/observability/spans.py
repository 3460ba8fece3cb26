"""Hierarchical span timers.

A *span* is a named, timed section of work.  Spans nest: entering a span
while another is open makes it a child, so one placement transformation
produces a small tree (``iteration`` → ``density`` / ``poisson`` / ``solve``
…) whose per-phase seconds can be read off directly.  Spans also carry
*counters* — scalar totals accumulated while the span is open (CG
iterations, grid bins, …).

Two recorder implementations share the same duck-typed interface:

* :class:`SpanRecorder` — the real thing: monotonic clocks, a span stack,
  a forest of closed spans, aggregation helpers.
* :class:`NullRecorder` — the default everywhere: every operation is a
  no-op on a single shared :class:`NullSpan`, so instrumented code paths
  cost one attribute lookup and one method call when telemetry is off.

Instrumented code takes a recorder argument defaulting to
:data:`NULL_RECORDER` and never checks whether telemetry is enabled; the
recorder's type *is* the switch.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed, nestable section with counters.

    Use as a context manager obtained from :meth:`SpanRecorder.span`; the
    clock starts on ``__enter__`` and stops on ``__exit__``.
    """

    __slots__ = ("name", "start", "end", "counters", "children", "_recorder")

    def __init__(self, name: str, recorder: "SpanRecorder"):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self._recorder = recorder

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        rec = self._recorder
        stack = rec._stack
        if stack:
            stack[-1].children.append(self)
        else:
            rec.roots.append(self)
        stack.append(self)
        self.start = rec.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._recorder.clock()
        self._recorder._stack.pop()
        return False

    # -- queries --------------------------------------------------------
    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate ``value`` into this span's named counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Depth-first (depth, span) traversal of this subtree."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.seconds:.6f}s, "
            f"{len(self.children)} children)"
        )


class NullSpan:
    """Shared do-nothing span; the entire cost of disabled telemetry."""

    __slots__ = ()
    name = ""
    seconds = 0.0
    counters: Dict[str, float] = {}

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, counter: str, value: float = 1.0) -> None:
        pass

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "NullSpan"]]:
        return iter(())


_NULL_SPAN = NullSpan()


class SpanRecorder:
    """Collects a forest of nested spans on a monotonic clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str) -> Span:
        """A new span; nests under the currently open span on entry."""
        return Span(name, self)

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate into the innermost open span (no-op outside spans)."""
        if self._stack:
            self._stack[-1].add(counter, value)

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def walk(self) -> Iterator[Tuple[int, Span]]:
        """Depth-first (depth, span) traversal of all closed roots."""
        for root in self.roots:
            yield from root.walk(0)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregate the whole forest by span name.

        Returns ``{name: {"seconds": total, "count": n, **summed_counters}}``.
        Nested spans of the same name all contribute, so ``totals()`` answers
        "how much wall-clock went into density work overall".
        """
        out: Dict[str, Dict[str, float]] = {}
        for _, span in self.walk():
            agg = out.setdefault(span.name, {"seconds": 0.0, "count": 0.0})
            agg["seconds"] += span.seconds
            agg["count"] += 1.0
            for key, value in span.counters.items():
                agg[key] = agg.get(key, 0.0) + value
        return out


class NullRecorder:
    """Recorder-shaped no-op: the zero-overhead default."""

    def span(self, name: str) -> NullSpan:
        return _NULL_SPAN

    def add(self, counter: str, value: float = 1.0) -> None:
        pass

    def current(self) -> None:
        return None

    def walk(self) -> Iterator[Tuple[int, Span]]:
        return iter(())

    def totals(self) -> Dict[str, Dict[str, float]]:
        return {}


#: Module-level shared no-op recorder; the default ``telemetry`` argument
#: throughout the placer, solver, density, Poisson and legalization code.
NULL_RECORDER = NullRecorder()

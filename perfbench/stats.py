"""Pure helpers of the benchmark: percentiles with a sample-count rule,
the serve-1k arrival schedule and the serve-1k latency decomposition.

Nothing here imports repro, so the helpers are tested without the program.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Dict, List, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it,
#: so one slow sample cannot set it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q*-quantile of *n* values."""
    return n - max(1, math.ceil(q * n))


def min_samples(q: float) -> int:
    """The fewest samples for which the *q*-quantile may be reported."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank *q*-quantile of *values* and its sample count.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: such a percentile is one or two measurements, not a tail.
    """
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples has "
            f"{max(0, samples_beyond(n, q))} beyond it; "
            f"needs {min_samples(q)} samples"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * n)) - 1], n


def arrival_schedule(rng: random.Random, n: int, window_s: float) -> List[float]:
    """*n* send times of a Poisson process over ``[0, window_s)``.

    Given its count, a Poisson process's arrival times are independent and
    uniform over the window, so sorting *n* uniform draws gives a Poisson
    schedule with exactly *n* requests: the sample count of every
    percentile is fixed in advance, and the rate is ``n / window_s``.
    """
    return sorted(rng.uniform(0.0, window_s) for _ in range(n))


#: The serve-1k request phases, in the order a request passes through them.
SERVE_PARTS = ("late", "submit", "queue_wait", "dispatch", "worker", "deliver")


def serve_parts(
    *,
    scheduled: float,
    sent: float,
    acked: float,
    received: float,
    server_latency_s: float,
    attempt_seconds: Sequence[float],
    worker_s: float,
) -> Dict[str, float]:
    """Split one request's latency into :data:`SERVE_PARTS`.

    *scheduled*, *sent*, *acked* and *received* are client clock readings:
    the send time the schedule asked for, the start and end of the submit
    RPC, and the arrival of the ``result`` frame.  The server reports its
    own submit-to-finish span (*server_latency_s*), the dispatch-to-finish
    span of each attempt and the in-worker seconds of the job.

    - ``late``: how far behind schedule the generator sent;
    - ``submit``: the client's submit RPC;
    - ``queue_wait``: server submit to dispatch (all waits between attempts);
    - ``dispatch``: dispatch and return, minus the worker's own time;
    - ``worker``: the job inside the worker;
    - ``deliver``: the rest, from the server's finish to the client.

    The parts add up to ``received - scheduled`` by construction.
    """
    attempts = float(sum(attempt_seconds))
    parts = {
        "late": sent - scheduled,
        "submit": acked - sent,
        "queue_wait": server_latency_s - attempts,
        "dispatch": attempts - worker_s,
        "worker": worker_s,
    }
    parts["deliver"] = (received - scheduled) - sum(parts.values())
    return parts


def median(values) -> float:
    """Median of *values* (0.0 for none: a layer that did no work)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0

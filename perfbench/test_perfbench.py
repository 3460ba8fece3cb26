"""Tests of the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import (  # noqa: E402
    MIN_BEYOND,
    SERVE_PARTS,
    arrival_schedule,
    min_samples,
    percentile,
    samples_beyond,
    serve_parts,
)
from workloads import make_inputs, op_count  # noqa: E402


def test_schedule_is_deterministic_for_a_seed():
    first = arrival_schedule(random.Random("serve-1k/7"), 24, 20.0)
    again = arrival_schedule(random.Random("serve-1k/7"), 24, 20.0)
    other = arrival_schedule(random.Random("serve-1k/8"), 24, 20.0)
    assert first == again
    assert first != other
    assert len(first) == 24
    assert first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 20.0


def test_serve_manifest_is_deterministic_and_never_repeats_a_seed(tmp_path):
    a = make_inputs("serve-1k", 3, 40.0, tmp_path / "a")
    b = make_inputs("serve-1k", 3, 40.0, tmp_path / "b")
    assert [r["at"] for r in a["requests"]] == [r["at"] for r in b["requests"]]
    assert [r["seed"] for r in a["requests"]] == [r["seed"] for r in b["requests"]]
    for x, y in zip(a["designs"], b["designs"]):
        assert Path(x).read_text() == Path(y).read_text()
    seeds = [r["seed"] for r in a["warmup"] + a["requests"]]
    assert len(set(seeds)) == len(seeds)  # no request can hit the cache


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_percentile_needs_ten_samples_beyond(q):
    n = min_samples(q)
    assert samples_beyond(n, q) >= MIN_BEYOND
    assert samples_beyond(n - 1, q) < MIN_BEYOND
    values = list(range(n))
    value, count = percentile(values, q)
    assert count == n
    assert sum(v > value for v in values) >= MIN_BEYOND
    with pytest.raises(ValueError, match="beyond"):
        percentile(values[:-1], q)


def test_percentile_counts():
    assert min_samples(0.5) == 20
    assert min_samples(0.9) == 100
    assert percentile(list(range(1, 21)), 0.5) == (10, 20)


def test_serve_too_short_for_a_p50_is_refused():
    with pytest.raises(ValueError, match="p50"):
        op_count("serve-1k", 5.0)


def test_serve_parts_add_up_to_the_measured_latency():
    rng = random.Random(0)
    for _ in range(100):
        scheduled = rng.uniform(0, 100)
        sent = scheduled + rng.uniform(0, 0.01)
        acked = sent + rng.uniform(0.01, 0.1)
        server_latency = rng.uniform(0.2, 2.0)
        worker = rng.uniform(0.1, server_latency / 2)
        attempts = [worker + rng.uniform(0.0, 0.2)]
        received = acked + server_latency + rng.uniform(0.0, 0.01)
        parts = serve_parts(
            scheduled=scheduled, sent=sent, acked=acked, received=received,
            server_latency_s=server_latency, attempt_seconds=attempts,
            worker_s=worker,
        )
        assert tuple(parts) == SERVE_PARTS
        assert sum(parts.values()) == pytest.approx(received - scheduled, abs=1e-9)
        assert parts["worker"] == worker
        assert parts["queue_wait"] == pytest.approx(server_latency - attempts[0])

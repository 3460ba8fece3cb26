"""Ablation — final-placement pipeline variants.

Compares the legalizer choice (Abacus vs Tetris) and the detailed
improvement stack (none / greedy swaps / + Domino window assignment) on the
same global placement, isolating each stage's contribution.  Every stage
runs the engine that ships: the vectorized Abacus and the vector improver.
"""

import time

import pytest

from repro import TetrisLegalizer, hpwl_meters
from repro.evaluation import format_table
from repro.legalize import DominoImprover, VectorAbacusLegalizer, VectorImprover

from conftest import print_table

CIRCUIT = "struct"


@pytest.fixture(scope="module")
def pipeline_results(suite):
    c = suite.circuit(CIRCUIT)
    global_p = suite.run(CIRCUIT, "kraftwerk").extra["placement"]
    results = []

    def record(name, fn):
        t0 = time.perf_counter()
        placement = fn()
        results.append((name, hpwl_meters(placement), time.perf_counter() - t0))
        return placement

    abacus = record(
        "abacus only",
        lambda: VectorAbacusLegalizer(c.region).legalize(global_p).placement,
    )
    record(
        "tetris only",
        lambda: TetrisLegalizer(c.region).legalize(global_p).placement,
    )
    greedy = record(
        "abacus + greedy",
        lambda: VectorImprover(c.region).improve(abacus).placement,
    )
    record(
        "abacus + greedy + domino",
        lambda: DominoImprover(c.region).improve(greedy).placement,
    )
    return results


def test_pipeline_run(benchmark, pipeline_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(pipeline_results) == 4


def test_pipeline_report(benchmark, pipeline_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [[name, wl, seconds] for name, wl, seconds in pipeline_results]
    print_table(
        format_table(
            ["pipeline", "wl[m]", "seconds"],
            rows,
            title=f"Ablation: final placement stages on {CIRCUIT}",
            float_digits=4,
        )
    )
    by_name = {name: wl for name, wl, _s in pipeline_results}
    # Each stage must not hurt; greedy must improve over bare legalization.
    assert by_name["abacus + greedy"] <= by_name["abacus only"] + 1e-12
    assert (
        by_name["abacus + greedy + domino"] <= by_name["abacus + greedy"] + 1e-12
    )
"""Claim E (Section 5) — heat-driven placement avoids hot spots.

"By replacing the congestion map with a heat map we can use the same
approach to avoid hot spots in the layout."  A contiguous, tightly connected
module is given 40x power; the plain placement packs it (hot spot), the
heat-driven placement spreads it.
"""

import pytest

from repro import HeatDrivenPlacer, KraftwerkPlacer, PlacerConfig
from repro.eco import NetlistDelta
from repro.evaluation import format_table

from conftest import print_table

CIRCUIT = "primary1"
HOT_FRACTION = 8  # one eighth of the movable cells form the hot module
POWER_FACTOR = 40.0


@pytest.fixture(scope="module")
def heat_results(suite):
    c = suite.circuit(CIRCUIT)
    nl = c.netlist
    movable = nl.movable_indices
    count = max(6, len(movable) // HOT_FRACTION)
    # The hot module is an ECO change: netlists are immutable.
    nl = NetlistDelta(modify_cells={
        nl.cell_names[i]: {"power": float(nl.powers[i]) * POWER_FACTOR}
        for i in movable[:count]
    }).apply(nl)
    base = KraftwerkPlacer(nl, c.region, PlacerConfig.standard()).place()
    driven = HeatDrivenPlacer(nl, c.region, PlacerConfig.standard(), heat_weight=2.0)
    result = driven.place()
    base_thermal = driven.model.solve(base.placement)
    return base, base_thermal, result


def test_heat_run(benchmark, heat_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _base, _thermal, result = heat_results
    assert result.peak_temperature > 0


def test_heat_report(benchmark, heat_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base, base_thermal, result = heat_results
    rows = [
        [
            "plain",
            base_thermal.peak_temperature,
            base_thermal.mean_temperature,
            base.hpwl_m,
        ],
        [
            "heat-driven",
            result.peak_temperature,
            result.thermal.mean_temperature,
            result.result.hpwl_m,
        ],
    ]
    print_table(
        format_table(
            ["placement", "peak T", "mean T", "hpwl[m]"],
            rows,
            title=(
                f"Heat-driven placement on {CIRCUIT} "
                f"(hot module of 1/{HOT_FRACTION} of the cells, "
                f"{POWER_FACTOR:.0f}x power)"
            ),
            float_digits=2,
        )
    )
    # Shape: the hot spot is reduced (or at minimum not made worse).
    assert result.peak_temperature <= base_thermal.peak_temperature * 1.05

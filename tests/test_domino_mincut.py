"""Tests for the Domino window-assignment improver and the min-cut placer."""

import numpy as np
import pytest

from repro import (
    NetlistBuilder,
    Placement,
    PlacementRegion,
    hpwl_meters,
    total_overlap,
)
from repro.baselines import MinCutConfig, MinCutPlacer
from repro.legalize import DominoImprover
from repro.testing import AbacusLegalizer


@pytest.fixture()
def region():
    return PlacementRegion.standard_cell(200.0, 100.0, row_height=10.0)


def _chain(n: int):
    b = NetlistBuilder("dom")
    for i in range(n):
        b.add_cell(f"c{i}", 10.0, 10.0)
    for i in range(n - 1):
        b.add_net(f"n{i}", [(f"c{i}", "output"), (f"c{i+1}", "input")])
    return b.build()


class TestDominoImprover:
    def test_never_worse_and_legal(self, region, rng):
        nl = _chain(40)
        legal = AbacusLegalizer(region).legalize(
            Placement.random(nl, region, rng)
        ).placement
        result = DominoImprover(region).improve(legal)
        assert result.hpwl_after_um <= result.hpwl_before_um + 1e-6
        assert total_overlap(result.placement) < 1e-6

    def test_untangles_permuted_window(self, region):
        # Six equal cells, each tied to its own pad directly above; placed
        # in reversed order, the optimal fix is the full permutation — a
        # single assignment window solves it.
        b = NetlistBuilder("perm")
        for i in range(6):
            b.add_cell(f"c{i}", 10.0, 10.0)
            b.add_fixed_cell(f"p{i}", 1.0, 1.0, x=5.0 + 10.0 * i, y=95.0)
            b.add_net(f"n{i}", [(f"c{i}", "output"), (f"p{i}", "input")])
        nl = b.build()
        xs = np.zeros(nl.num_cells)
        ys = np.zeros(nl.num_cells)
        for i in range(6):
            ci = nl.cell_by_name(f"c{i}").index
            xs[ci] = 5.0 + 10.0 * (5 - i)  # reversed
            ys[ci] = 45.0
        p = Placement(nl, xs, ys)
        result = DominoImprover(region, window=6, max_passes=4).improve(p)
        assert result.moves_accepted >= 1
        assert result.improvement_percent > 30.0
        for i in range(6):
            ci = nl.cell_by_name(f"c{i}").index
            assert result.placement.x[ci] == pytest.approx(5.0 + 10.0 * i)

    def test_window_validation(self, region):
        with pytest.raises(ValueError):
            DominoImprover(region, window=1)

    def test_respects_obstacles(self, region, rng):
        from repro import Rect

        obstacle = Rect(90.0, 0.0, 20.0, 100.0)
        nl = _chain(20)
        legal = AbacusLegalizer(region, obstacles=[obstacle]).legalize(
            Placement.random(nl, region, rng)
        ).placement
        result = DominoImprover(region, obstacles=[obstacle]).improve(legal)
        for i in nl.movable_indices:
            assert not result.placement.rect_of(int(i)).overlaps(obstacle)


class TestMinCutPlacer:
    def test_places_and_spreads(self, small_circuit):
        result = MinCutPlacer(small_circuit.netlist, small_circuit.region).place()
        assert result.levels >= 3
        assert result.num_regions > 8
        # All cells inside the region.
        b = small_circuit.region.bounds
        m = small_circuit.netlist.movable_mask
        assert np.all(result.placement.x[m] >= b.xlo)
        assert np.all(result.placement.x[m] <= b.xhi)

    def test_beats_random(self, small_circuit, rng):
        result = MinCutPlacer(small_circuit.netlist, small_circuit.region).place()
        random_p = Placement.random(small_circuit.netlist, small_circuit.region, rng)
        assert result.hpwl_m < 0.8 * hpwl_meters(random_p)

    def test_worse_than_analytical(self, small_circuit, placed_small):
        """The historical ordering: pure min-cut loses to force-directed."""
        result = MinCutPlacer(small_circuit.netlist, small_circuit.region).place()
        assert placed_small.hpwl_m < result.hpwl_m * 1.15

    def test_terminal_propagation_helps(self, small_circuit):
        with_tp = MinCutPlacer(
            small_circuit.netlist,
            small_circuit.region,
            MinCutConfig(terminal_propagation=True),
        ).place()
        without_tp = MinCutPlacer(
            small_circuit.netlist,
            small_circuit.region,
            MinCutConfig(terminal_propagation=False),
        ).place()
        assert with_tp.hpwl_m < without_tp.hpwl_m * 1.2

    def test_no_movable_rejected(self):
        b = NetlistBuilder("f")
        b.add_fixed_cell("p", 1.0, 1.0, x=0.0, y=0.0)
        region = PlacementRegion.standard_cell(10.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            MinCutPlacer(b.build(), region)

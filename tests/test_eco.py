"""Tests for ECO deltas and incremental placement."""

import numpy as np
import pytest

from repro import Cell, KraftwerkPlacer, NetlistDelta, eco_place
from repro.eco import transfer_placement


class TestNetlistDelta:
    def test_empty_delta(self, small_circuit):
        delta = NetlistDelta()
        assert delta.is_empty()
        new = delta.apply(small_circuit.netlist)
        assert new.num_cells == small_circuit.netlist.num_cells
        assert new.num_nets == small_circuit.netlist.num_nets

    def test_add_cells_and_nets(self, small_circuit):
        nl = small_circuit.netlist
        delta = NetlistDelta(
            add_cells=[Cell("extra0", 30.0, 100.0), Cell("extra1", 30.0, 100.0)],
            add_nets=[("xnet", [("extra0", "output"), ("extra1", "input"), ("c0", "input")], 1.0)],
        )
        new = delta.apply(nl)
        assert new.num_cells == nl.num_cells + 2
        assert new.num_nets == nl.num_nets + 1
        assert new.net_by_name("xnet").degree == 3

    def test_remove_cell_drops_its_pins(self, small_circuit):
        nl = small_circuit.netlist
        victim = nl.cells[nl.movable_indices[0]].name
        delta = NetlistDelta(remove_cells=[victim])
        new = delta.apply(nl)
        assert new.num_cells == nl.num_cells - 1
        with pytest.raises(KeyError):
            new.cell_by_name(victim)
        # Nets that dropped below 2 pins are removed entirely.
        for net in new.nets:
            assert net.degree >= 2

    def test_resize(self, small_circuit):
        nl = small_circuit.netlist
        name = nl.cells[nl.movable_indices[0]].name
        old_w = nl.cell_by_name(name).width
        delta = NetlistDelta(resize_cells={name: old_w * 2.0})
        new = delta.apply(nl)
        assert new.cell_by_name(name).width == old_w * 2.0

    def test_movable_hints_survive(self):
        from repro.netlist import NetlistBuilder

        b = NetlistBuilder("hints")
        b.add_cell("a", 10.0, 10.0, x=5.0, y=6.0)
        b.add_cell("b", 10.0, 10.0)
        b.add_net("n", [("a", "output"), ("b", "input")])
        new = NetlistDelta(resize_cells={"b": 30.0}).apply(b.build())
        hinted, bare = new.cell_by_name("a"), new.cell_by_name("b")
        assert (hinted.x, hinted.y) == (5.0, 6.0)
        assert (bare.x, bare.y) == (None, None)
        assert bare.width == 30.0

    def test_remove_net(self, small_circuit):
        nl = small_circuit.netlist
        victim = nl.nets[0].name
        new = NetlistDelta(remove_nets=[victim]).apply(nl)
        assert new.num_nets == nl.num_nets - 1

    def test_fixed_addition_rejected(self, small_circuit):
        delta = NetlistDelta(
            add_cells=[Cell("f", 1.0, 1.0, fixed=True, x=0.0, y=0.0)]
        )
        with pytest.raises(ValueError):
            delta.apply(small_circuit.netlist)


class TestTransferPlacement:
    def test_surviving_cells_keep_positions(self, small_circuit, placed_small):
        nl = small_circuit.netlist
        delta = NetlistDelta(add_cells=[Cell("new0", 30.0, 100.0)],
                             add_nets=[("nn", [("new0", "output"), ("c1", "input")], 1.0)])
        new_nl = delta.apply(nl)
        p = transfer_placement(nl, placed_small.placement, new_nl, small_circuit.region)
        for cell in new_nl.cells:
            if cell.name.startswith("new"):
                continue
            if cell.fixed:
                continue
            old = nl.cell_by_name(cell.name)
            assert p.x[cell.index] == placed_small.placement.x[old.index]

    def test_new_cell_at_neighbor_centroid(self, small_circuit, placed_small):
        nl = small_circuit.netlist
        delta = NetlistDelta(
            add_cells=[Cell("new0", 30.0, 100.0)],
            add_nets=[("nn", [("c5", "output"), ("new0", "input")], 1.0)],
        )
        new_nl = delta.apply(nl)
        p = transfer_placement(nl, placed_small.placement, new_nl, small_circuit.region)
        new_cell = new_nl.cell_by_name("new0")
        old_c5 = nl.cell_by_name("c5")
        assert p.x[new_cell.index] == pytest.approx(
            placed_small.placement.x[old_c5.index]
        )


class TestEcoPlace:
    def test_small_change_small_disturbance(self, small_circuit, placed_small):
        nl = small_circuit.netlist
        delta = NetlistDelta(
            add_cells=[Cell("eco0", 30.0, 100.0)],
            add_nets=[("en", [("eco0", "output"), ("c2", "input")], 1.0)],
        )
        result = eco_place(nl, placed_small.placement, delta, small_circuit.region)
        region_dim = min(small_circuit.region.width, small_circuit.region.height)
        assert result.mean_disturbance < 0.25 * region_dim
        assert len(result.common_cells) == nl.num_movable

    def test_disturbance_scales_with_change(self, small_circuit, placed_small):
        nl = small_circuit.netlist
        small_delta = NetlistDelta(
            add_cells=[Cell("e0", 30.0, 100.0)],
            add_nets=[("en0", [("e0", "output"), ("c2", "input")], 1.0)],
        )
        big_cells = [Cell(f"b{i}", 60.0, 100.0) for i in range(60)]
        big_delta = NetlistDelta(
            add_cells=big_cells,
            add_nets=[
                (f"bn{i}", [(f"b{i}", "output"), (f"c{i}", "input")], 1.0)
                for i in range(60)
            ],
        )
        small_result = eco_place(nl, placed_small.placement, small_delta, small_circuit.region)
        big_result = eco_place(nl, placed_small.placement, big_delta, small_circuit.region)
        assert small_result.mean_disturbance <= big_result.mean_disturbance + 1e-9

    def test_no_change_minimal_disturbance(self, small_circuit, placed_small):
        result = eco_place(
            small_circuit.netlist,
            placed_small.placement,
            NetlistDelta(),
            small_circuit.region,
        )
        region_dim = min(small_circuit.region.width, small_circuit.region.height)
        assert result.mean_disturbance < 0.1 * region_dim

"""Tests for HPWL and quadratic wire-length evaluation."""

import numpy as np
import pytest

from repro import Placement, hpwl, hpwl_meters
from repro.evaluation import (
    net_bounding_boxes,
    net_hpwl,
    quadratic_wirelength,
)


@pytest.fixture()
def placed(four_cell_netlist, four_cell_region):
    p = Placement.at_center(four_cell_netlist, four_cell_region)
    nl = four_cell_netlist
    p.move_to(nl.cell_by_name("a").index, 30.0, 50.0)
    p.move_to(nl.cell_by_name("b").index, 70.0, 60.0)
    return p


class TestHpwl:
    def test_per_net(self, placed):
        lengths = net_hpwl(placed)
        # n1: pad(0,50) - a(30,50): dx=30, dy=0
        assert lengths[0] == pytest.approx(30.0)
        # n2: a(30,50) - b(70,60): 40 + 10
        assert lengths[1] == pytest.approx(50.0)
        # n3: b(70,60) - pad(100,50): 30 + 10
        assert lengths[2] == pytest.approx(40.0)

    def test_total_and_meters(self, placed):
        assert hpwl(placed) == pytest.approx(120.0)
        assert hpwl_meters(placed) == pytest.approx(120.0e-6)

    def test_weighted(self, placed):
        w = np.array([2.0, 1.0, 0.0])
        assert hpwl(placed, weights=w) == pytest.approx(110.0)

    def test_weight_length_mismatch(self, placed):
        with pytest.raises(ValueError):
            hpwl(placed, weights=np.ones(5))

    def test_pin_offsets_respected(self, four_cell_region):
        from repro import NetlistBuilder

        b = NetlistBuilder("off")
        b.add_cell("a", 10.0, 10.0)
        b.add_cell("b", 10.0, 10.0)
        b.add_net("n", [("a", "output", 2.0, 0.0), ("b", "input", -2.0, 0.0)])
        nl = b.build()
        p = Placement(nl, np.array([10.0, 30.0]), np.array([5.0, 5.0]))
        # pins at 12 and 28 -> dx = 16
        assert hpwl(p) == pytest.approx(16.0)


class TestQuadratic:
    def test_two_pin_net(self, placed):
        # Clique weight 1/k = 1/2 per edge for 2-pin nets:
        # each net contributes (dx^2+dy^2)/2 ... verified against formula
        # sum(c^2) - sum(c)^2/k per axis.
        q = quadratic_wirelength(placed)
        expected = 0.0
        for px, py in [
            (np.array([0.0, 30.0]), np.array([50.0, 50.0])),
            (np.array([30.0, 70.0]), np.array([50.0, 60.0])),
            (np.array([70.0, 100.0]), np.array([60.0, 50.0])),
        ]:
            for c in (px, py):
                expected += (c**2).sum() - c.sum() ** 2 / 2.0
        assert q == pytest.approx(expected)

    def test_matches_explicit_clique(self, tiny_circuit, rng):
        from repro import Placement as P

        nl = tiny_circuit.netlist
        p = P.random(nl, tiny_circuit.region, rng)
        fast = quadratic_wirelength(p)
        slow = 0.0
        for net in nl.nets:
            px, py = p.pin_positions(net.index)
            k = net.degree
            for i in range(k):
                for j in range(i + 1, k):
                    slow += ((px[i] - px[j]) ** 2 + (py[i] - py[j]) ** 2) / k
        assert fast == pytest.approx(slow, rel=1e-9)


class TestBoundingBoxesAndCache:
    def test_bounding_boxes(self, placed):
        boxes = net_bounding_boxes(placed)
        assert boxes.shape == (3, 4)
        assert boxes[1].tolist() == [30.0, 50.0, 70.0, 60.0]

    def test_pin_arrays_structure(self, four_cell_netlist):
        # The pin CSR is a set of plain netlist attributes.
        nl = four_cell_netlist
        assert nl.net_ptr.tolist() == [0, 2, 4, 6]
        assert nl.net_degree.tolist() == [2, 2, 2]
        assert nl.pin_cell.tolist() == [0, 2, 2, 3, 3, 1]

    def test_distinct_netlists_get_distinct_arrays(self):
        from repro import NetlistBuilder

        def build():
            b = NetlistBuilder("twin")
            b.add_cell("a", 4.0, 4.0)
            b.add_cell("b", 4.0, 4.0)
            b.add_net("n", [("a", "output"), ("b", "input")])
            return b.build()

        nl1, nl2 = build(), build()
        # Identical structure, different objects: no shared arrays, and no
        # array a caller could write through.
        assert nl1.pin_cell is not nl2.pin_cell
        with pytest.raises(ValueError, match="read-only"):
            nl1.pin_cell[0] = 1

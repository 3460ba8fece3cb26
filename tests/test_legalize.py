"""Tests for segments, Abacus/Tetris legalization and detailed improvement."""

import numpy as np
import pytest

from repro import (
    NetlistBuilder,
    Placement,
    PlacementRegion,
    Rect,
    TetrisLegalizer,
    final_placement,
    total_overlap,
)
from repro.evaluation import hpwl
from repro.legalize import VectorImprover, build_segments, total_capacity
from repro.testing import AbacusLegalizer


@pytest.fixture()
def region():
    return PlacementRegion.standard_cell(200.0, 100.0, row_height=10.0)


def _cells(n, width=10.0, height=10.0, name="c"):
    b = NetlistBuilder("leg")
    for i in range(n):
        b.add_cell(f"{name}{i}", width, height)
    # Some connectivity so detailed improvement has something to optimize.
    for i in range(n - 1):
        b.add_net(f"n{i}", [(f"{name}{i}", "output"), (f"{name}{i+1}", "input")])
    return b.build()


def _assert_legal(placement, region, netlist):
    assert total_overlap(placement) < 1e-6
    row_ys = {row.center_y for row in region.rows}
    for i in netlist.movable_indices:
        assert float(placement.y[i]) in row_ys
        r = placement.rect_of(int(i))
        assert region.bounds.contains_rect(r)


class TestSegments:
    def test_no_obstacles(self, region):
        segments = build_segments(region)
        assert len(segments) == region.num_rows
        assert total_capacity(segments) == pytest.approx(region.row_capacity())

    def test_obstacle_splits_rows(self, region):
        obstacle = Rect(80.0, 0.0, 40.0, 35.0)  # covers rows 0-3 partially
        segments = build_segments(region, [obstacle])
        affected = [s for s in segments if s.row.index == 0]
        assert len(affected) == 2
        assert affected[0].xhi == pytest.approx(80.0)
        assert affected[1].xlo == pytest.approx(120.0)
        # Row above the obstacle (row 4 onwards) is intact.
        row4 = [s for s in segments if s.row.index == 4]
        assert len(row4) == 1

    def test_obstacle_at_row_edge(self, region):
        obstacle = Rect(0.0, 0.0, 50.0, 10.0)
        segments = build_segments(region, [obstacle])
        row0 = [s for s in segments if s.row.index == 0]
        assert len(row0) == 1
        assert row0[0].xlo == pytest.approx(50.0)

    def test_rowless_region_rejected(self):
        region = PlacementRegion(bounds=Rect(0, 0, 10, 10))
        with pytest.raises(ValueError):
            build_segments(region)


class TestAbacus:
    def test_legalizes_random(self, region, rng):
        nl = _cells(40)
        p = Placement.random(nl, region, rng)
        result = AbacusLegalizer(region).legalize(p)
        assert result.success
        _assert_legal(result.placement, region, nl)

    def test_legalizes_stacked(self, region):
        nl = _cells(30)
        p = Placement(nl, np.full(30, 100.0), np.full(30, 50.0))
        result = AbacusLegalizer(region).legalize(p)
        assert result.success
        _assert_legal(result.placement, region, nl)

    def test_displacement_small_for_almost_legal(self, region):
        nl = _cells(10)
        xs = np.array([5.0 + 12.0 * i for i in range(10)])
        ys = np.full(10, 45.0)  # row center at 45
        p = Placement(nl, xs, ys)
        result = AbacusLegalizer(region).legalize(p)
        assert result.success
        assert result.mean_displacement < 6.0

    def test_respects_obstacles(self, region, rng):
        obstacle = Rect(50.0, 0.0, 100.0, 100.0)  # big block in the middle
        nl = _cells(30)
        p = Placement.random(nl, region, rng)
        result = AbacusLegalizer(region, obstacles=[obstacle]).legalize(p)
        assert result.success
        for i in nl.movable_indices:
            assert not result.placement.rect_of(int(i)).overlaps(obstacle)

    def test_heavier_cells_move_less(self, region):
        b = NetlistBuilder("w")
        b.add_cell("big", 10.0, 10.0)
        b.add_cell("small", 10.0, 10.0)
        nl = b.build()
        # Make 'big' artificially heavy (a netlist's arrays are read-only).
        nl.areas = nl.areas * np.array([100.0, 1.0])
        p = Placement(nl, np.array([100.0, 100.0]), np.array([45.0, 45.0]))
        result = AbacusLegalizer(region).legalize(p)
        moved = result.placement.displacement_from(p)
        assert moved[0] <= moved[1] + 1e-9


class TestTetris:
    def test_legalizes_random(self, region, rng):
        nl = _cells(40)
        p = Placement.random(nl, region, rng)
        result = TetrisLegalizer(region).legalize(p)
        assert result.success
        _assert_legal(result.placement, region, nl)

    def test_worse_or_equal_displacement_than_abacus(self, region, rng):
        nl = _cells(60)
        p = Placement.random(nl, region, rng)
        tetris = TetrisLegalizer(region).legalize(p)
        abacus = AbacusLegalizer(region).legalize(p)
        if tetris.success and abacus.success:
            assert abacus.mean_displacement <= tetris.mean_displacement * 1.5


class TestDetailedImprovement:
    def test_never_worse_and_stays_legal(self, region, rng):
        nl = _cells(50)
        p = Placement.random(nl, region, rng)
        legal = AbacusLegalizer(region).legalize(p).placement
        before = hpwl(legal)
        improved = VectorImprover(region).improve(legal)
        assert improved.hpwl_after_um <= before + 1e-6
        _assert_legal(improved.placement, region, nl)

    def test_shuffled_order_improved(self, region, rng):
        nl = _cells(20)
        # Deliberately scrambled chain: 0,10,1,11,... in one row.
        order = [i // 2 if i % 2 == 0 else 10 + i // 2 for i in range(20)]
        xs = np.zeros(20)
        for slot, cell in enumerate(order):
            xs[cell] = 5.0 + 10.0 * slot
        p = Placement(nl, xs, np.full(20, 45.0))
        improved = VectorImprover(region, max_passes=10).improve(p)
        assert improved.moves_accepted > 0
        assert improved.improvement_percent > 0.0


class TestFinalPlacement:
    def test_pipeline(self, region, rng):
        nl = _cells(40)
        p = Placement.random(nl, region, rng)
        out = final_placement(p, region)
        _assert_legal(out, region, nl)

    def test_overfull_region_fails_loudly(self):
        tight = PlacementRegion.standard_cell(50.0, 20.0, row_height=10.0)
        nl = _cells(40)  # 4000 um^2 of cells into a 1000 um^2 region
        p = Placement(nl, np.full(40, 25.0), np.full(40, 10.0))
        with pytest.raises(RuntimeError):
            final_placement(p, tight)

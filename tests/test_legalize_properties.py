"""Seeded-randomized property suite for every legalizer and improver.

One invariant, one oracle: whatever engine produced the placement,
``repro.testing.assert_legal`` must accept it — no overlaps, in-region,
row-aligned, fixed cells untouched.  The suite drives all snap engines
(the vectorized Abacus, its scalar oracle, Tetris) and all polish engines
(the vector improver, Domino) across randomized circuits and the degenerate
inputs that historically break legalizers: zero movable cells, a single
overfull row, and cells wider than a row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import PlacementRegion
from repro.legalize import (
    DominoImprover,
    TetrisLegalizer,
    VectorAbacusLegalizer,
    VectorImprover,
    final_placement,
)
from repro.netlist import (
    GeneratorSpec,
    NetlistBuilder,
    Placement,
    generate_circuit,
)
from repro.testing import AbacusLegalizer, assert_legal

SEEDS = [0, 1, 2, 7, 11]

#: Every snap engine in the tree: the production one, its scalar oracle
#: and the ablation baseline.
LEGALIZER_CLASSES = [
    pytest.param(VectorAbacusLegalizer, id="abacus"),
    pytest.param(AbacusLegalizer, id="abacus-scalar"),
    pytest.param(TetrisLegalizer, id="tetris"),
]

#: Every pass-based polish engine (Domino has its own tests below).
IMPROVER_CLASSES = [pytest.param(VectorImprover, id="vector")]


def _random_case(seed: int, num_cells: int = 240, num_rows: int = 8):
    circ = generate_circuit(
        GeneratorSpec(name=f"prop{seed}", num_cells=num_cells,
                      num_rows=num_rows, seed=seed)
    )
    placement = Placement.random(
        circ.netlist, circ.region, np.random.default_rng(seed)
    )
    return circ.netlist, circ.region, placement


class TestLegalizersProperty:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("legalizer", LEGALIZER_CLASSES)
    def test_legalize_random_placements(self, legalizer, seed):
        _, region, placement = _random_case(seed)
        result = legalizer(region).legalize(placement)
        if result.success:
            assert_legal(result.placement, region, reference=placement)
        else:
            # A legalizer may fail on a packed random placement (Tetris
            # wastes tail gaps) but must say so instead of emitting an
            # overlapping placement silently.
            assert result.failed_cells

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("legalizer", LEGALIZER_CLASSES)
    def test_relegalizing_legal_placement(self, legalizer, seed):
        # Every engine must accept an already-legal placement (produced by
        # the production Abacus) — the common handoff between stages.
        _, region, placement = _random_case(seed)
        legal = VectorAbacusLegalizer(region).legalize(placement).placement
        result = legalizer(region).legalize(legal)
        assert result.success
        assert_legal(result.placement, region, reference=legal)


class TestImproversProperty:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("improver", IMPROVER_CLASSES)
    def test_improvers_preserve_legality(self, improver, seed):
        from repro.evaluation import hpwl_meters

        _, region, placement = _random_case(seed)
        legal = VectorAbacusLegalizer(region).legalize(placement).placement
        improved = improver(region, max_passes=2).improve(legal)
        assert_legal(improved.placement, region, reference=legal)
        assert hpwl_meters(improved.placement) <= hpwl_meters(legal) + 1e-12

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_domino_preserves_legality(self, seed):
        _, region, placement = _random_case(seed)
        legal = VectorAbacusLegalizer(region).legalize(placement).placement
        improved = DominoImprover(region).improve(legal)
        assert_legal(improved.placement, region, reference=legal)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_full_final_placement_flow(self, seed):
        _, region, placement = _random_case(seed)
        out = final_placement(placement, region, use_domino=True)
        assert_legal(out, region, reference=placement)


# ----------------------------------------------------------------------
# Degenerate inputs
# ----------------------------------------------------------------------
def _fixed_only_netlist():
    builder = NetlistBuilder("fixed-only")
    builder.add_fixed_cell("p0", 10.0, 100.0, x=5.0, y=50.0)
    builder.add_fixed_cell("p1", 10.0, 100.0, x=395.0, y=50.0)
    builder.add_net("n0", [("p0", "output", 0.0, 0.0),
                           ("p1", "input", 0.0, 0.0)])
    return builder.build()


def _row_netlist(widths, name="degenerate"):
    builder = NetlistBuilder(name)
    for k, w in enumerate(widths):
        builder.add_cell(f"c{k}", width=float(w), height=100.0)
    if len(widths) >= 2:
        builder.add_net("n0", [("c0", "output", 0.0, 0.0),
                               ("c1", "input", 0.0, 0.0)])
    return builder.build()


class TestDegenerateInputs:
    @pytest.mark.parametrize("legalizer", LEGALIZER_CLASSES)
    def test_zero_movable_cells(self, legalizer):
        netlist = _fixed_only_netlist()
        region = PlacementRegion.standard_cell(400.0, 100.0, 100.0)
        placement = Placement.at_center(netlist, region)
        result = legalizer(region).legalize(placement)
        assert result.success
        assert result.mean_displacement == 0.0
        assert_legal(result.placement, region, reference=placement)

    @pytest.mark.parametrize("legalizer", LEGALIZER_CLASSES)
    def test_single_overfull_row(self, legalizer):
        # Five 100-um cells into one 400-um row: at least one must be
        # reported as failed — and never silently stacked on the others.
        netlist = _row_netlist([100.0] * 5)
        region = PlacementRegion.standard_cell(400.0, 100.0, 100.0)
        placement = Placement.at_center(netlist, region)
        result = legalizer(region).legalize(placement)
        assert not result.success
        assert len(result.failed_cells) >= 1

    @pytest.mark.parametrize("legalizer", LEGALIZER_CLASSES)
    def test_cell_wider_than_row(self, legalizer):
        netlist = _row_netlist([500.0, 20.0])
        region = PlacementRegion.standard_cell(400.0, 200.0, 100.0)
        placement = Placement.at_center(netlist, region)
        result = legalizer(region).legalize(placement)
        assert 0 in result.failed_cells
        # The narrow cell must still land legally.
        assert result.placement.x[1] == result.placement.x[1]  # finite

    @pytest.mark.parametrize("improver", IMPROVER_CLASSES)
    def test_improvers_accept_empty_worklists(self, improver):
        # A single movable cell: no swaps or slides are possible, the
        # improver must terminate cleanly and keep the placement legal.
        netlist = _row_netlist([50.0])
        region = PlacementRegion.standard_cell(400.0, 100.0, 100.0)
        placement = Placement.at_center(netlist, region)
        legal = VectorAbacusLegalizer(region).legalize(placement).placement
        improved = improver(region, max_passes=2).improve(legal)
        assert_legal(improved.placement, region, reference=legal)

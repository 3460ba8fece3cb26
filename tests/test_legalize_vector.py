"""Cross-checks pinning the vectorized legalization engine to the scalar
reference implementations.

The vectorized Abacus (``repro.legalize.vector``) is required to be
**bit-identical** to the scalar Abacus oracle
(``repro.testing.oracles.AbacusLegalizer``) — same clusters, same collapse
arithmetic, same positions, down to the last ULP — across randomized
circuits, with and without obstacles (including the block rectangles the
floorplanner hands it).  The batched move evaluator is likewise pinned to
brute-force HPWL recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MixedSizePlacer, make_mixed_size_circuit
from repro.evaluation import hpwl_meters
from repro.geometry import Rect
from repro.legalize import (
    MoveEvaluator,
    VectorAbacusLegalizer,
    VectorImprover,
)
from repro.netlist import CellKind, GeneratorSpec, Placement, generate_circuit
from repro.testing import AbacusLegalizer, assert_legal

SEEDS = [0, 1, 2, 5, 9]


def _case(seed: int, num_cells: int = 300, num_rows: int = 8,
          utilization: float = 0.8):
    circ = generate_circuit(
        GeneratorSpec(name=f"xchk{seed}", num_cells=num_cells,
                      num_rows=num_rows, seed=seed,
                      utilization=utilization)
    )
    placement = Placement.random(
        circ.netlist, circ.region, np.random.default_rng(seed + 100)
    )
    return circ.netlist, circ.region, placement


def _blockage_case(seed: int):
    # A roomier region (60 % utilization) so the blockages below leave
    # enough capacity for a fully successful legalization.
    _, region, placement = _case(seed, utilization=0.6)
    b = region.bounds
    w, h = b.xhi - b.xlo, b.yhi - b.ylo
    # Small blockages (~6 % of the area) so the region keeps enough
    # capacity for every cell — legality is asserted below.
    obstacles = [
        Rect(b.xlo + 0.30 * w, b.ylo + 0.25 * h,
             b.xlo + 0.40 * w, b.ylo + 0.50 * h),
        Rect(b.xlo + 0.70 * w, b.ylo + 0.50 * h,
             b.xlo + 0.80 * w, b.ylo + 0.75 * h),
    ]
    return region, placement, obstacles


def _floorplan_case():
    """What the floorplanner hands the snap: the global placement with its
    blocks separated and snapped to rows, and the block rectangles (many
    rows tall, touching each other and the region edge) as obstacles."""
    circ = make_mixed_size_circuit(
        scale=0.12, num_blocks=4, block_area_fraction=0.3
    )
    result = MixedSizePlacer(circ.netlist, circ.region).place()
    nl = circ.netlist
    blocks = [
        int(i) for i in nl.movable_indices
        if nl.cells[int(i)].kind is CellKind.BLOCK
    ]
    placement = result.global_result.placement.copy()
    placement.x[blocks] = result.placement.x[blocks]
    placement.y[blocks] = result.placement.y[blocks]
    return circ.region, placement, result.block_rects


class TestVectorAbacusBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_exactly(self, seed):
        _, region, placement = _case(seed)
        scalar = AbacusLegalizer(region).legalize(placement)
        vector = VectorAbacusLegalizer(region).legalize(placement)
        assert scalar.success and vector.success
        # Bit-identical, not approximately equal: the vector engine
        # reproduces the scalar collapse arithmetic term for term.
        assert np.array_equal(scalar.placement.x, vector.placement.x)
        assert np.array_equal(scalar.placement.y, vector.placement.y)
        assert scalar.mean_displacement == vector.mean_displacement
        assert scalar.max_displacement == vector.max_displacement

    @pytest.mark.parametrize("case", SEEDS[:3] + ["floorplan"])
    def test_matches_scalar_with_obstacles(self, case):
        if case == "floorplan":
            region, placement, obstacles = _floorplan_case()
        else:
            region, placement, obstacles = _blockage_case(case)
        scalar = AbacusLegalizer(region, obstacles=obstacles).legalize(placement)
        vector = VectorAbacusLegalizer(region, obstacles=obstacles).legalize(
            placement
        )
        assert scalar.success and vector.success
        assert np.array_equal(scalar.placement.x, vector.placement.x)
        assert np.array_equal(scalar.placement.y, vector.placement.y)
        assert_legal(vector.placement, region, obstacles=obstacles,
                     reference=placement)

    def test_larger_circuit(self):
        _, region, placement = _case(3, num_cells=900, num_rows=12)
        scalar = AbacusLegalizer(region).legalize(placement)
        vector = VectorAbacusLegalizer(region).legalize(placement)
        assert np.array_equal(scalar.placement.x, vector.placement.x)
        assert np.array_equal(scalar.placement.y, vector.placement.y)


class TestMoveEvaluatorExactness:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_single_cell_deltas_match_brute_force(self, seed):
        netlist, region, placement = _case(seed, num_cells=120, num_rows=4)
        legal = VectorAbacusLegalizer(region).legalize(placement).placement
        ev = MoveEvaluator(netlist)
        rng = np.random.default_rng(seed)
        movable = netlist.movable_indices
        cells = rng.choice(movable, size=20, replace=False)
        new_x = legal.x[cells] + rng.uniform(-40, 40, size=20)
        new_y = legal.y[cells].copy()
        deltas = ev.deltas(legal.x, legal.y, cells, new_x, new_y)
        before = hpwl_meters(legal)
        for k, cell in enumerate(cells):
            trial = legal.copy()
            trial.x[int(cell)] = new_x[k]
            brute = (hpwl_meters(trial) - before) * 1e6  # meters -> um
            assert deltas[k] == pytest.approx(brute, abs=1e-6)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_swap_deltas_match_brute_force(self, seed):
        netlist, region, placement = _case(seed, num_cells=120, num_rows=4)
        legal = VectorAbacusLegalizer(region).legalize(placement).placement
        ev = MoveEvaluator(netlist)
        rng = np.random.default_rng(seed)
        movable = netlist.movable_indices
        pairs = rng.choice(movable, size=(12, 2), replace=False)
        a, b = pairs[:, 0], pairs[:, 1]
        deltas = ev.deltas(
            legal.x, legal.y,
            a, legal.x[b], legal.y[b],
            cell_b=b, new_bx=legal.x[a], new_by=legal.y[a],
        )
        before = hpwl_meters(legal)
        for k in range(len(a)):
            trial = legal.copy()
            ia, ib = int(a[k]), int(b[k])
            trial.x[ia], trial.x[ib] = legal.x[ib], legal.x[ia]
            trial.y[ia], trial.y[ib] = legal.y[ib], legal.y[ia]
            brute = (hpwl_meters(trial) - before) * 1e6
            assert deltas[k] == pytest.approx(brute, abs=1e-6)


class TestVectorImprover:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_improves_and_stays_legal(self, seed):
        _, region, placement = _case(seed)
        legal = VectorAbacusLegalizer(region).legalize(placement).placement
        improved = VectorImprover(region, max_passes=4).improve(legal)
        assert_legal(improved.placement, region, reference=legal)
        assert improved.hpwl_after_um <= improved.hpwl_before_um

    def test_deterministic(self):
        _, region, placement = _case(4)
        legal = VectorAbacusLegalizer(region).legalize(placement).placement
        a = VectorImprover(region, max_passes=4).improve(legal)
        b = VectorImprover(region, max_passes=4).improve(legal)
        assert np.array_equal(a.placement.x, b.placement.x)
        assert np.array_equal(a.placement.y, b.placement.y)

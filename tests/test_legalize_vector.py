"""Cross-checks pinning the vectorized legalization engine to the scalar
reference implementations.

The vectorized Abacus (``repro.legalize.vector``) is required to be
**bit-identical** to the scalar Abacus oracle
(``repro.testing.oracles.AbacusLegalizer``) — same clusters, same collapse
arithmetic, same positions, down to the last ULP — across randomized
circuits, with and without obstacles (including the block rectangles the
floorplanner hands it).  The batched move evaluator's cached-extreme
pricing is likewise pinned, float for float, to the pin-gathering oracle
(``repro.testing.oracles.PinGatheringEvaluator``), and to brute-force HPWL
recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MixedSizePlacer, make_mixed_size_circuit
from repro.evaluation import hpwl_meters
from repro.geometry import Rect
from repro.legalize import (
    MoveEvaluator,
    VectorAbacusLegalizer,
    VectorImprover,
)
from repro.netlist import (
    CellKind, GeneratorSpec, NetlistBuilder, Placement, generate_circuit,
)
from repro.testing import AbacusLegalizer, PinGatheringEvaluator, assert_legal

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


# Coordinates and pin offsets drawn from a few shared values (ties between
# cells and between one cell's pins) or from wide floats (rounding).
_COORDS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 2.5000000000000004, 7.0, 100.0]),
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
)
_OFFSETS = st.one_of(
    st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.5]),
    st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _pricing_case(draw):
    """A small netlist (cells with several pins on a net, degree-1 nets,
    nets whose pins are all on one cell), coordinates, and moves."""
    num_cells = draw(st.integers(2, 8))
    builder = NetlistBuilder("pricing")
    for i in range(num_cells):
        builder.cell(f"c{i}", 1.0, 1.0)
    for j in range(draw(st.integers(1, 8))):
        cells = draw(st.lists(st.integers(0, num_cells - 1), min_size=1,
                              max_size=6))
        offsets = draw(st.lists(st.tuples(_OFFSETS, _OFFSETS),
                                min_size=len(cells), max_size=len(cells)))
        builder.net(f"n{j}", 1.0, cells, [0] * len(cells),
                    [dx for dx, _ in offsets], [dy for _, dy in offsets])
    netlist = builder.build()
    x = np.array(draw(st.lists(_COORDS, min_size=num_cells,
                               max_size=num_cells)))
    y = np.array(draw(st.lists(_COORDS, min_size=num_cells,
                               max_size=num_cells)))
    x_only = draw(st.booleans())
    two = draw(st.booleans())
    moves = draw(st.lists(
        st.tuples(st.permutations(range(num_cells)), _COORDS, _COORDS,
                  _COORDS, _COORDS, st.booleans()),
        min_size=1, max_size=6,
    ))
    cell_a = np.array([perm[0] for perm, *_ in moves])
    cell_b = np.array([perm[1] for perm, *_ in moves])
    # Swaps trade places (as the improver's do); other moves go anywhere.
    new_ax = np.array([x[b] if swap else ax
                       for (_, ax, _, _, _, swap), b in zip(moves, cell_b)])
    new_bx = np.array([x[a] if swap else bx
                       for (_, _, _, bx, _, swap), a in zip(moves, cell_a)])
    if x_only:
        new_ay, new_by = y[cell_a], y[cell_b]
    else:
        new_ay = np.array([ay for _, _, ay, _, _, _ in moves])
        new_by = np.array([by for _, _, _, _, by, _ in moves])
    if two:
        move = (cell_a, new_ax, new_ay, cell_b, new_bx, new_by)
    else:
        move = (cell_a, new_ax, new_ay)
    relocate = draw(st.lists(st.tuples(st.integers(0, num_cells - 1),
                                       _COORDS, _COORDS), max_size=4))
    return netlist, x, y, move, x_only, relocate


def _assert_prices_match(ev, oracle, x, y, move, x_only):
    got = ev.deltas(*move, x_only=x_only)
    want = oracle.deltas(x, y, *move, x_only=x_only)
    assert np.array_equal(got, want), (got, want)
    cells = np.arange(len(x))[::-1]
    excl_min, excl_max = ev.exclusive_x(cells)
    want_min, want_max, _ = oracle.exclusive_x(x, cells)
    assert np.array_equal(excl_min, want_min)
    assert np.array_equal(excl_max, want_max)


def _run_out_case():
    """Net 1's pins are all on cell 0, so its sides run out after rank 0;
    ranking them further must not knock out an entry of net 0, whose
    third-largest x (5, on cell 0) prices moving cells 1 and 2 to 0 and 1:
    net 0's extent stays 10 - 5 -> 5 - 0, a delta of 0."""
    builder = NetlistBuilder("run-out")
    for i in range(3):
        builder.cell(f"c{i}", 1.0, 1.0)
    builder.net("n0", 1.0, [0, 1, 2], [0, 0, 0], [0.0] * 3, [0.0] * 3)
    builder.net("n1", 1.0, [0], [0], [0.0], [0.0])
    x = np.array([5.0, 10.0, 8.0])
    y = np.zeros(3)
    move = (np.array([1]), np.array([0.0]), y[[1]],
            np.array([2]), np.array([1.0]), y[[2]])
    return builder.build(), x, y, move, True, []


class TestMoveEvaluatorExactness:
    """The cached-extreme pricing gives the pin-gathering oracle's floats
    bit for bit, before and after the placement under it changes, and
    agrees with brute-force HPWL recomputation."""

    @settings(max_examples=300, deadline=None)
    @given(_pricing_case())
    @example(case=_run_out_case())
    def test_deltas_equal_pin_gathering_oracle(self, case):
        netlist, x, y, move, x_only, relocate = case
        ev = MoveEvaluator(netlist, x, y)
        oracle = PinGatheringEvaluator(netlist)
        _assert_prices_match(ev, oracle, x, y, move, x_only)
        # Move cells under the evaluator (x only, or x and y), refresh
        # the moved cells' nets, and price again.
        y_moved = not x_only
        for cell, new_x, new_y in relocate:
            x[cell] = new_x
            if y_moved:
                y[cell] = new_y
        if relocate:
            moved = np.unique([cell for cell, _, _ in relocate])
            nets = np.unique(np.concatenate(
                [ev.inc_net[ev.cell_ptr[c]:ev.cell_ptr[c + 1]] for c in moved]
            ))
            ev.refresh(nets, y=y_moved)
        _assert_prices_match(ev, oracle, x, y, move, x_only)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_single_cell_deltas_match_brute_force(self, seed):
        netlist, region, placement = _case(seed, num_cells=120, num_rows=4)
        legal = VectorAbacusLegalizer(region).legalize(placement).placement
        ev = MoveEvaluator(netlist, legal.x, legal.y)
        rng = np.random.default_rng(seed)
        movable = netlist.movable_indices
        cells = rng.choice(movable, size=20, replace=False)
        new_x = legal.x[cells] + rng.uniform(-40, 40, size=20)
        new_y = legal.y[cells].copy()
        deltas = ev.deltas(cells, new_x, new_y)
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
        ev = MoveEvaluator(netlist, legal.x, legal.y)
        rng = np.random.default_rng(seed)
        movable = netlist.movable_indices
        pairs = rng.choice(movable, size=(12, 2), replace=False)
        a, b = pairs[:, 0], pairs[:, 1]
        deltas = ev.deltas(
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

"""Property-based tests on the algorithmic components (FM, legalizers, STA)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import NetlistBuilder, Placement, PlacementRegion
from repro.baselines import fm_bipartition
from repro.evaluation import total_overlap
from repro.testing import AbacusLegalizer
from repro.timing import StaticTimingAnalyzer


def _cut(sides, nets) -> int:
    return sum(1 for net in nets if len({sides[c] for c in net}) > 1)


@st.composite
def hypergraph(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    m = draw(st.integers(min_value=1, max_value=30))
    nets = []
    for _ in range(m):
        size = draw(st.integers(min_value=2, max_value=min(5, n)))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        nets.append(members)
    return n, nets


class TestFmProperties:
    @given(hypergraph())
    @settings(max_examples=40, deadline=None)
    def test_result_cut_is_consistent_and_not_worse(self, graph):
        n, nets = graph
        areas = np.ones(n)
        initial = np.array([i % 2 for i in range(n)], dtype=np.int8)
        initial_cut = _cut(initial, nets)
        result = fm_bipartition(n, nets, areas, initial=initial.copy())
        assert result.cut == _cut(result.sides, nets)
        assert result.cut <= initial_cut

    @given(hypergraph())
    @settings(max_examples=25, deadline=None)
    def test_locked_cells_never_move(self, graph):
        n, nets = graph
        areas = np.ones(n)
        initial = np.array([i % 2 for i in range(n)], dtype=np.int8)
        locked = np.zeros(n, dtype=bool)
        locked[0] = locked[n - 1] = True
        result = fm_bipartition(
            n, nets, areas, initial=initial.copy(), locked=locked
        )
        assert result.sides[0] == initial[0]
        assert result.sides[n - 1] == initial[n - 1]

    @given(hypergraph(), st.floats(min_value=0.5, max_value=0.8))
    @settings(max_examples=25, deadline=None)
    def test_balance_respected_up_to_granularity(self, graph, balance):
        n, nets = graph
        areas = np.ones(n)
        result = fm_bipartition(n, nets, areas, balance=balance)
        side0 = float(areas[result.sides == 0].sum())
        limit = max(balance * n, n / 2.0 + 1.0)
        assert side0 <= limit + 1e-9
        assert n - side0 <= limit + 1e-9


@st.composite
def random_cells(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    widths = draw(
        st.lists(
            st.floats(min_value=2.0, max_value=18.0),
            min_size=n,
            max_size=n,
        )
    )
    xs = draw(
        st.lists(
            st.floats(min_value=-50.0, max_value=250.0),
            min_size=n,
            max_size=n,
        )
    )
    ys = draw(
        st.lists(
            st.floats(min_value=-50.0, max_value=150.0),
            min_size=n,
            max_size=n,
        )
    )
    return widths, xs, ys


class TestAbacusProperties:
    @given(random_cells())
    @settings(max_examples=30, deadline=None)
    def test_always_legal_when_capacity_suffices(self, data):
        widths, xs, ys = data
        b = NetlistBuilder("h")
        for k, w in enumerate(widths):
            b.add_cell(f"c{k}", w, 10.0)
        nl = b.build()
        region = PlacementRegion.standard_cell(600.0, 100.0, row_height=10.0)
        p = Placement(nl, np.array(xs), np.array(ys))
        result = AbacusLegalizer(region).legalize(p)
        assert result.success
        assert total_overlap(result.placement) < 1e-6
        row_ys = {row.center_y for row in region.rows}
        for i in nl.movable_indices:
            assert float(result.placement.y[i]) in row_ys
            rect = result.placement.rect_of(int(i))
            assert region.bounds.contains_rect(rect.expanded(-1e-9))


class TestStaProperties:
    @given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_delay_monotone_in_net_delays(self, n, seed):
        rng = np.random.default_rng(seed)
        b = NetlistBuilder("mono")
        b.add_fixed_cell("pin", 1.0, 1.0, x=0.0, y=0.0)
        for i in range(n):
            b.add_cell(f"c{i}", 4.0, 4.0, delay=float(rng.uniform(0.1, 1.0)))
        b.add_net("n_in", [("pin", "output"), ("c0", "input")])
        for i in range(n - 1):
            b.add_net(f"n{i}", [(f"c{i}", "output"), (f"c{i+1}", "input")])
        nl = b.build()
        analyzer = StaticTimingAnalyzer(nl)
        base = rng.uniform(0.0, 2.0, nl.num_nets)
        bumped = base.copy()
        bumped[rng.integers(0, nl.num_nets)] += 1.0
        d0 = analyzer.analyze(net_delays_ns=base).max_delay_ns
        d1 = analyzer.analyze(net_delays_ns=bumped).max_delay_ns
        assert d1 >= d0 - 1e-9

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_lower_bound_is_lower(self, seed):
        from repro.netlist import GeneratorSpec, generate_circuit

        circuit = generate_circuit(GeneratorSpec(name="lb", num_cells=80))
        rng = np.random.default_rng(seed)
        analyzer = StaticTimingAnalyzer(circuit.netlist)
        delays = rng.uniform(0.0, 3.0, circuit.netlist.num_nets)
        d = analyzer.analyze(net_delays_ns=delays).max_delay_ns
        assert d >= analyzer.lower_bound_ns() - 1e-9

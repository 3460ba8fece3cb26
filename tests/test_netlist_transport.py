"""Netlists cross process boundaries as canonical text, parsed once per
process.

The contract under test:

- the ``repro netlist v1`` text is lossless or loud: parsing the text of
  any netlist the repo makes gives back an equal netlist, field by field,
  and a name the format cannot carry raises ``ValueError``;
- a netlist pickles as that text, and unpickling in a process that still
  holds the design returns the very object;
- every design source goes through one memo keyed by the bytes read, so a
  file rewritten in place is read anew, and the memo's own hold on
  designs is bounded by total cells;
- serial and pool runs stay bit-identical for in-memory sources under
  fork and spawn, where a spawned worker parses the text cold.
"""

import gc
import io
import pickle
import re
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api
from repro import NetlistDelta
from repro.api import resolve_source
from repro.geometry import PlacementRegion
from repro.netlist import (
    Cell,
    CellKind,
    GeneratorSpec,
    Netlist,
    NetlistBuilder,
    cluster_netlist,
    generate_circuit,
    load_bookshelf,
    netlist_from_string,
    netlist_to_string,
    save_bookshelf,
    save_netlist,
)
from repro.netlist.io import parse_netlist
from repro.netlist.memo import MAX_CELLS, DesignMemo
from repro.parallel import PlacementJob, run_batch


def cold_parse(text):
    """Parse without the design memo, as a fresh process does."""
    return parse_netlist(io.StringIO(text))


def assert_same_design(got, want):
    """Equal field by field: name, every cell attribute, every net's
    name, weight and pins, in order."""
    assert got.name == want.name
    assert len(got.cells) == len(want.cells)
    assert len(got.nets) == len(want.nets)
    for a, b in zip(got.cells, want.cells):
        assert (
            a.name, a.width, a.height, a.kind, a.fixed, a.x, a.y,
            a.delay, a.input_cap, a.power, a.is_register,
        ) == (
            b.name, b.width, b.height, b.kind, b.fixed, b.x, b.y,
            b.delay, b.input_cap, b.power, b.is_register,
        )
    for a, b in zip(got.nets, want.nets):
        assert (a.name, a.weight, a.pins) == (b.name, b.weight, b.pins)


def assert_lossless(netlist):
    text = netlist_to_string(netlist)
    back = cold_parse(text)
    assert back is not netlist
    assert_same_design(back, netlist)
    assert netlist_to_string(back) == text  # canonical: a fixed point
    # Through the memo: this netlist, or an equal one it already held.
    assert netlist_to_string(netlist_from_string(text)) == text


def small_circuit(seed, num_cells=60, **kwargs):
    return generate_circuit(
        GeneratorSpec(name=f"gen{seed}", num_cells=num_cells, num_rows=4,
                      seed=seed, **kwargs)
    )


# ----------------------------------------------------------------------
# Lossless or loud
# ----------------------------------------------------------------------
NAME = st.text(min_size=1, max_size=8).filter(
    lambda s: not any(ch.isspace() for ch in s)
)
DESIGN_NAME = st.text(min_size=1, max_size=12).filter(
    lambda s: s == s.strip() and "\n" not in s and "\r" not in s
)
FLOAT = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
POSITIVE = st.floats(min_value=1e-3, max_value=1e4)


@st.composite
def random_netlists(draw):
    names = draw(st.lists(NAME, min_size=2, max_size=12, unique=True))
    builder = NetlistBuilder(draw(DESIGN_NAME))
    for name in names:
        common = dict(
            kind=draw(st.sampled_from(list(CellKind))),
            delay=draw(st.floats(min_value=0.0, max_value=10.0)),
            input_cap=draw(POSITIVE),
            power=draw(st.floats(min_value=0.0, max_value=5.0)),
            is_register=draw(st.booleans()),
        )
        width, height = draw(POSITIVE), draw(POSITIVE)
        if draw(st.booleans()):
            builder.add_fixed_cell(
                name, width, height, x=draw(FLOAT), y=draw(FLOAT), **common
            )
        else:
            hint = draw(st.one_of(st.none(), FLOAT))
            builder.add_cell(name, width, height, x=hint, y=hint, **common)
    net_names = draw(st.lists(NAME, max_size=8, unique=True))
    for net_name in net_names:
        members = draw(st.lists(st.sampled_from(names), min_size=1, max_size=5))
        out_at = draw(st.integers(min_value=-1, max_value=len(members) - 1))
        pins = [
            (cell, "output" if k == out_at else "input", draw(FLOAT), draw(FLOAT))
            for k, cell in enumerate(members)
        ]
        builder.add_net(net_name, pins, weight=draw(POSITIVE))
    return builder.build()


class TestLosslessText:
    @settings(max_examples=60, deadline=None)
    @given(random_netlists())
    def test_any_netlist_round_trips(self, netlist):
        assert_lossless(netlist)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_generated_round_trips(self, seed):
        assert_lossless(small_circuit(seed).netlist)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_bookshelf_loaded_round_trips(self, tmp_path, seed):
        circuit = small_circuit(seed)
        aux = save_bookshelf(circuit.netlist, circuit.region, tmp_path / "d")
        # The design is named after the .aux file; the components it lists
        # cannot hold spaces, but the .aux name can.
        spaced = aux.with_name(f"my design {seed}.aux")
        spaced.write_text(aux.read_text())
        netlist, _region, _placement = load_bookshelf(spaced)
        assert netlist.name == f"my design {seed}"
        assert_lossless(netlist)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_clustered_round_trips(self, seed):
        coarse = cluster_netlist(small_circuit(seed).netlist).coarse
        assert coarse.name.endswith("+coarse")
        assert_lossless(coarse)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_eco_derived_round_trips(self, seed):
        base = small_circuit(seed).netlist
        movable = [c.name for c in base.cells if not c.fixed]
        delta = NetlistDelta(
            add_cells=[Cell(name="eco_buf", width=21.5, height=16.0,
                            delay=0.05)],
            remove_cells=[movable[0]],
            resize_cells={movable[1]: 42.25},
            modify_cells={movable[2]: {"power": 0.125, "delay": 0.5}},
            add_nets=[("eco_net", [(movable[3], "output"), "eco_buf"], 2.5)],
        )
        derived = delta.apply(base)
        assert derived.name.endswith("+eco")
        assert_lossless(derived)

    def test_design_name_keeps_its_spaces(self):
        builder = NetlistBuilder("my design\tv2")
        builder.add_cell("a", 1.0, 1.0)
        netlist = builder.build()
        assert cold_parse(netlist_to_string(netlist)).name == "my design\tv2"

    @pytest.mark.parametrize("design, cell, net, culprit", [
        ("d", "", "n", "cell name ''"),
        ("d", "a b", "n", "cell name 'a b'"),
        ("d", "a", "", "net name ''"),
        ("d", "a", "n\tx", "net name 'n\\tx'"),
        ("d", "a", "n\u00a0x", "net name"),  # Unicode whitespace
        ("", "a", "n", "netlist name ''"),
        (" d", "a", "n", "netlist name ' d'"),
        ("d\nx", "a", "n", "netlist name"),
    ])
    def test_unwritable_names_are_loud(self, design, cell, net, culprit):
        builder = NetlistBuilder(design)
        builder.add_cell(cell, 1.0, 1.0)
        builder.add_net(net, [cell])
        netlist = builder.build()
        with pytest.raises(ValueError, match=re.escape(culprit)):
            netlist_to_string(netlist)
        with pytest.raises(ValueError, match=re.escape(culprit)):
            pickle.dumps(netlist)


# ----------------------------------------------------------------------
# Pickling as text
# ----------------------------------------------------------------------
def fresh_netlist(tag):
    builder = NetlistBuilder(f"pickle-{tag}")
    builder.add_cell("a", 2.0, 1.0)
    builder.add_cell("b", 3.0, 1.0, x=4.5, y=0.5)
    builder.add_fixed_cell("p", 1.0, 1.0, x=0.0, y=0.0)
    builder.add_net("n", [("a", "output"), "b", ("p", "input", 0.25, -0.5)])
    return builder.build()


class TestPickleAsText:
    def test_round_trip_in_process_is_identity(self):
        netlist = fresh_netlist("identity")
        assert pickle.loads(pickle.dumps(netlist)) is netlist

    def test_round_trip_is_identity_beside_an_equal_netlist(self):
        text = netlist_to_string(fresh_netlist("twin"))
        parsed = netlist_from_string(text)  # the memo's answer for the text
        twin = fresh_netlist("twin")  # equal content, another object
        assert pickle.loads(pickle.dumps(twin)) is twin
        assert pickle.loads(pickle.dumps(parsed)) is parsed
        assert netlist_from_string(text) is parsed

    def test_pickle_is_the_text_plus_a_constant(self, tiny_circuit):
        for netlist in (fresh_netlist("size"), tiny_circuit.netlist):
            text = netlist_to_string(netlist)
            assert len(pickle.dumps(netlist)) <= len(text.encode("utf-8")) + 128

    def test_text_is_computed_once_per_object(self):
        netlist = fresh_netlist("once")
        assert netlist_to_string(netlist) is netlist_to_string(netlist)

    def test_containers_come_back_holding_the_same_netlist(self, tiny_circuit):
        back = pickle.loads(pickle.dumps(tiny_circuit))
        assert back.netlist is tiny_circuit.netlist
        flow = repro.api.place(tiny_circuit, seed=3, max_iterations=3)
        back = pickle.loads(pickle.dumps(flow))
        assert back.placement.netlist is flow.placement.netlist
        assert back.positions_hash() == flow.positions_hash()

    def test_unpickling_unknown_text_parses_it(self):
        """A design this process does not hold (a spawned worker's case)
        is parsed from the pickled text and equals the original."""
        netlist = fresh_netlist("cold")
        data = pickle.dumps(netlist)
        ref = weakref.ref(netlist)
        text = netlist_to_string(netlist)
        del netlist
        gc.collect()
        assert ref() is None  # only indexed, never held by the memo
        back = pickle.loads(data)
        assert_same_design(back, cold_parse(text))
        assert pickle.loads(data) is back


# ----------------------------------------------------------------------
# The design memo
# ----------------------------------------------------------------------
def block_netlist(tag, cells):
    return Netlist(tag, [Cell(f"c{i}", 1.0, 1.0) for i in range(cells)], [])


class TestDesignMemo:
    def test_evicts_least_recently_used_at_its_bound(self):
        memo = DesignMemo(max_cells=100)
        designs = {k: block_netlist(k, 40) for k in "abc"}
        refs = {k: weakref.ref(n) for k, n in designs.items()}
        memo.put("a", designs["a"])
        memo.put("b", designs["b"])
        assert memo.get("a")[0] is designs["a"]  # a is now most recent
        memo.put("c", designs["c"])  # 120 cells > 100: b goes
        designs.clear()
        gc.collect()
        assert refs["b"]() is None
        assert refs["a"]() is not None and refs["c"]() is not None
        assert memo.get("b") is None
        assert memo.get("a")[0] is refs["a"]()
        assert (memo.hits, memo.misses) == (2, 1)

    def test_live_designs_are_found_beyond_the_bound(self):
        memo = DesignMemo(max_cells=10)
        held = block_netlist("held", 50)
        memo.put("k", held, None)
        gc.collect()
        assert memo.get("k")[0] is held  # our reference keeps it findable

    def test_first_live_entry_wins(self):
        memo = DesignMemo()
        first, second = block_netlist("x", 3), block_netlist("x", 3)
        region = PlacementRegion.standard_cell(10.0, 10.0, 1.0)
        assert memo.put("k", first, region) == (first, region)
        assert memo.put("k", second, None) == (first, region)

    def test_a_100k_cell_design_dies_with_its_last_user(self):
        assert MAX_CELLS < 100_000
        big = block_netlist("memo-100k", 100_000)
        text = netlist_to_string(big)
        del big
        gc.collect()
        netlist = netlist_from_string(text)  # a real parse through the memo
        assert netlist_from_string(text) is netlist
        ref = weakref.ref(netlist)
        del netlist
        gc.collect()
        assert ref() is None

    def test_resolve_source_shares_generated_designs(self):
        first = resolve_source("tiny")
        assert resolve_source("tiny")[0] is first[0]
        assert resolve_source("tiny")[1] is first[1]

    def test_netlist_file_rewritten_in_place_is_read_anew(self, tmp_path):
        path = tmp_path / "design.netlist"
        save_netlist(small_circuit(1).netlist, path)
        first, _, _ = resolve_source(path)
        assert resolve_source(path)[0] is first
        save_netlist(small_circuit(2).netlist, path)
        second, _, _ = resolve_source(path)
        assert second.name == "gen2" and first.name == "gen1"
        assert_same_design(second, small_circuit(2).netlist)

    def test_bookshelf_component_rewritten_in_place_is_read_anew(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real = repro.api.load_bookshelf

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(repro.api, "load_bookshelf", counting)
        circuit = small_circuit(3)
        base = tmp_path / "bs"
        aux = save_bookshelf(circuit.netlist, circuit.region, base)
        netlist, region, _ = resolve_source(aux)
        assert resolve_source(aux)[0] is netlist
        assert len(calls) == 1  # the hit parsed nothing
        # Rewrite only the rows: the .scl component changes, nothing else.
        taller = PlacementRegion.standard_cell(
            region.width, region.height * 2, region.row_height
        )
        save_bookshelf(circuit.netlist, taller, base)
        netlist2, region2, _ = resolve_source(aux)
        assert len(calls) == 2  # a miss still goes through load_bookshelf
        assert region2.num_rows == 2 * region.num_rows
        assert_same_design(netlist2, netlist)
        # Rewrite the cells and nets with another design.
        other = small_circuit(4)
        save_bookshelf(other.netlist, other.region, base)
        netlist3, _, _ = resolve_source(aux)
        assert netlist3.num_cells == other.netlist.num_cells
        assert [c.name for c in netlist3.cells] == [
            c.name for c in other.netlist.cells
        ]
        assert [n.pins for n in netlist3.nets] == [
            n.pins for n in other.netlist.nets
        ]


# ----------------------------------------------------------------------
# Serial against pool, in-memory sources, fork and spawn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mp_context", ["fork", "spawn"])
def test_pool_matches_serial_for_in_memory_sources(mp_context):
    circuit = small_circuit(11, num_cells=120)
    netlist = circuit.netlist
    sources = [netlist, (netlist, circuit.region), circuit]
    jobs = [
        PlacementJob(source=source, seed=seed, max_iterations=6)
        for source in sources for seed in (1, 2)
    ]
    serial = run_batch(jobs, workers=0)
    pooled = run_batch(jobs, workers=2, mp_context=mp_context)
    assert pooled.mp_context == mp_context
    assert [j.ok for j in pooled.jobs] == [True] * len(jobs)
    assert [j.positions_hash for j in pooled.jobs] == [
        j.positions_hash for j in serial.jobs
    ]
    for job in pooled.jobs:
        # The flow came back as text and resolved to the parent's object.
        assert job.flow.placement.netlist is netlist

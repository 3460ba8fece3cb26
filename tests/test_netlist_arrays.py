"""A netlist is one struct of arrays, from parse to placer.

The contract under test:

- the canonical text of the bench designs, and of their Bookshelf round
  trips, is pinned by digest: it is the design-memo key, the result-cache
  signature and the wire hash, so a reader or writer change must not move
  it;
- neither reader, nor unpickling, nor ``NetlistBuilder.build()``, nor a
  placement job constructs a ``Cell``, ``Net`` or ``Pin``: a parsed
  design holds arrays, names and its text, and nothing per cell or per
  pin;
- ``netlist.cells[i]`` and ``netlist.nets[j]`` are read-only views, and the
  arrays behind them cannot be written either.
"""

import gc
import hashlib
import io
import pickle
import tracemalloc

import numpy as np
import pytest

import repro
from repro.netlist import (
    Cell,
    Net,
    NetlistBuilder,
    Pin,
    bench_spec,
    generate_circuit,
    load_bookshelf,
    netlist_from_string,
    netlist_to_string,
    save_bookshelf,
)
from repro.netlist.io import parse_netlist

#: SHA-256 of ``netlist_to_string`` for each bench size (seed 0), direct
#: and after a ``save_bookshelf``/``load_bookshelf`` round trip.
CANONICAL_SHA256 = {
    "tiny": (
        "c21fe8fa638c5c4d4c42cd9e90f5a880d8c0f75a8e048727de829ebd43f59057",
        "d9e2b5189090f23b967f938f40108e36cbc883bcb7cd59ae463d4d8a4c8d2516",
    ),
    "small": (
        "f1e4665e6c025fcd0e669fc422a3487eaec86dc75480c4bf2c0b9406d16bcbb9",
        "9c32b5a84e3d45f7c6fa23213423dc3cb54c710fbb3abc78499c880931df799a",
    ),
    "medium": (
        "9b2ec23e29ab2beb87bdaf349603ea49ddc7a3faf6f0c905aaa02cdb5e99e14e",
        "c62b7b1a763b3f9955d80cb4eefe2f80de2466fec1c2978a6b3486e1d044c0ac",
    ),
}

#: Bytes a parsed ``medium`` design (1,338 cells, 3,834 pins) may hold,
#: its canonical text included.  Arrays, names and text come to about
#: 0.6 MB; the object graph of Cell/Net/Pin records held 2.1 MB.
MEDIUM_MAX_BYTES = 800_000


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def medium():
    circuit = generate_circuit(bench_spec("medium"))
    return circuit, netlist_to_string(circuit.netlist)


@pytest.mark.parametrize("size", sorted(CANONICAL_SHA256))
def test_canonical_text_is_pinned(size, tmp_path):
    direct, round_trip = CANONICAL_SHA256[size]
    circuit = generate_circuit(bench_spec(size))
    text = netlist_to_string(circuit.netlist)
    assert _sha256(text) == direct
    assert netlist_to_string(parse_netlist(io.StringIO(text))) == text
    aux = save_bookshelf(circuit.netlist, circuit.region, tmp_path / size)
    assert _sha256(netlist_to_string(load_bookshelf(aux)[0])) == round_trip


@pytest.fixture
def constructions(monkeypatch):
    """Counts every Cell, Net and Pin built, by constructor or as a view."""
    counts = {"built": 0}
    for cls in (Cell, Net, Pin):
        init, view = cls.__init__, cls.__dict__.get("_view")

        def counted_init(self, *args, _init=init, **kwargs):
            counts["built"] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)
        if view is not None:
            def counted_view(klass, *args, _view=view.__func__, **kwargs):
                counts["built"] += 1
                return _view(klass, *args, **kwargs)

            monkeypatch.setattr(cls, "_view", classmethod(counted_view))
    return counts


def test_no_reader_builds_a_record_per_cell_or_pin(medium, constructions, tmp_path):
    circuit, text = medium
    aux = save_bookshelf(circuit.netlist, circuit.region, tmp_path / "m")
    before = constructions["built"]
    parse_netlist(io.StringIO(text))
    load_bookshelf(aux)
    pickle.loads(pickle.dumps(circuit.netlist))
    netlist_from_string(text.replace("netlist medium", "netlist other", 1))
    builder = NetlistBuilder("b")
    builder.cell("a", 1.0, 1.0)
    builder.cell("b", 1.0, 1.0)
    builder.net("n", 1.0, [0, 1], [1, 0], [0.0, 0.0], [0.0, 0.0])
    builder.build()
    assert constructions["built"] == before


def test_a_placement_job_builds_no_view(constructions):
    # Global placement, legalization and detailed improvement read the
    # arrays: a job costs nothing per cell or per pin in Python objects.
    circuit = generate_circuit(bench_spec("tiny"))
    before = constructions["built"]
    result = repro.place(circuit, seed=0)
    assert result.legalized is not None
    assert constructions["built"] == before


def test_views_are_built_on_access_and_never_kept(medium, constructions):
    netlist = parse_netlist(io.StringIO(medium[1]))
    cell, net = netlist.cells[5], netlist.nets[5]
    assert (cell.index, net.index) == (5, 5)
    assert constructions["built"] == 2 + net.degree  # a net view holds its pins
    assert netlist.cells[5] is not cell and netlist.cells[5] == cell


def test_a_parsed_medium_design_holds_under_the_bound(medium):
    text = medium[1]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        netlist = parse_netlist(io.StringIO(text))
        netlist_to_string(netlist)  # held: the text is kept on the netlist
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert netlist.num_cells == 1338
    assert held <= MEDIUM_MAX_BYTES, f"{held / 1e6:.2f} MB"


def test_views_and_arrays_are_read_only(four_cell_netlist):
    nl = four_cell_netlist
    with pytest.raises(AttributeError, match="read-only"):
        nl.cells[2].width = 3.0
    with pytest.raises(AttributeError, match="read-only"):
        nl.nets[0].weight = 2.0
    with pytest.raises(TypeError):
        nl.nets[0].pins[0] = Pin(0)
    for name, column in nl.columns().items():
        with pytest.raises(ValueError, match="read-only"):
            column[...] = 0
    with pytest.raises(TypeError):
        nl.cells[0] = Cell("z", 1.0, 1.0)


def test_views_match_the_arrays(four_cell_netlist):
    nl = four_cell_netlist
    a = nl.cell_by_name("a")
    assert (a.width, a.height, a.delay, a.fixed, a.x) == (10.0, 10.0, 0.2, False, None)
    pl = nl.cells[0]
    assert (pl.fixed, pl.x, pl.y) == (True, 0.0, 50.0)
    n2 = nl.net_by_name("n2")
    assert [(p.cell, p.direction.value) for p in n2.pins] == [
        (2, "output"), (3, "input")
    ]
    assert [c.name for c in nl.cells[1:3]] == ["pr", "a"]
    assert nl.cells[-1].name == "b"
    with pytest.raises(IndexError):
        nl.cells[4]


def test_from_columns_checks_the_whole_design(four_cell_netlist):
    from repro.netlist import Netlist

    nl = four_cell_netlist
    columns = nl.columns()
    widths = nl.widths.copy()
    widths[3] = 0.0
    with pytest.raises(ValueError, match="cell 'b' has zero or negative size"):
        Netlist.from_columns("t", nl.cell_names, nl.net_names,
                             **{**columns, "widths": widths})
    pin_cell = nl.pin_cell.copy()
    pin_cell[0] = 9
    with pytest.raises(ValueError, match="references cell index 9"):
        Netlist.from_columns("t", nl.cell_names, nl.net_names,
                             **{**columns, "pin_cell": pin_cell})
    pin_dir = np.ones_like(nl.pin_dir)
    with pytest.raises(ValueError, match="multiple drivers"):
        Netlist.from_columns("t", nl.cell_names, nl.net_names,
                             **{**columns, "pin_dir": pin_dir})

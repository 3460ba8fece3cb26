"""Property-based fuzzing of both netlist readers.

A netlist file is untrusted input.  Hypothesis mutates the files of one
valid generated design — a token becomes ``nan``, ``inf``, ``-1``, ``0``
or junk; a line is truncated, duplicated or deleted — and every example
must end in one of two ways:

- a loaded design;
- a ``ValueError`` whose message names the file and the offending line
  (``d.nodes:12: ...``).  The one file-level error, an ``.scl`` file with
  no ``CoreRow``, names the file alone.

Any other exception type fails the property.
"""

import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    GeneratorSpec,
    Netlist,
    generate_circuit,
    load_bookshelf,
    load_netlist,
    netlist_to_string,
    save_bookshelf,
)

DESIGN = generate_circuit(GeneratorSpec(name="fuzz", num_cells=16, num_rows=2))

#: Replacement tokens: the non-finite, negative and zero numbers a reader
#: must not take at face value, and short junk.
TOKENS = st.sampled_from(["nan", "inf", "-inf", "-1", "0"]) | st.text(
    alphabet=string.ascii_letters + string.digits + ":./-_", min_size=1,
    max_size=6,
)

FUZZ = settings(max_examples=100, deadline=None)


@st.composite
def mutated(draw, lines):
    """*lines* after one to three random edits."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["token", "truncate", "duplicate", "delete"]))
        if edit == "token":
            tokens = lines[i].split()
            if tokens:
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
                lines[i] = " ".join(tokens)
        elif edit == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            del lines[i]
    return lines


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def bookshelf(workdir):
    """``{suffix: lines}`` of the design's Bookshelf files."""
    aux = save_bookshelf(DESIGN.netlist, DESIGN.region, workdir / "d")
    return aux, {
        suffix: aux.with_suffix(suffix).read_text().splitlines()
        for suffix in (".nodes", ".nets", ".pl", ".scl")
    }


def loads_or_names_the_line(load, pattern: str) -> None:
    """*load()* returns a design, or raises a ``ValueError`` matching
    *pattern*; any other exception propagates and fails the test."""
    try:
        netlist = load()
    except ValueError as exc:
        assert re.match(pattern, str(exc)), str(exc)
    else:
        assert isinstance(netlist, Netlist)


@FUZZ
@given(data=st.data())
def test_text_reader(workdir, data):
    lines = netlist_to_string(DESIGN.netlist).splitlines()
    path = workdir / "d.netlist"
    path.write_text("\n".join(data.draw(mutated(lines))) + "\n")
    loads_or_names_the_line(lambda: load_netlist(path), r"d\.netlist:\d+: ")


@FUZZ
@given(data=st.data())
def test_bookshelf_reader(bookshelf, data):
    aux, files = bookshelf
    suffix = data.draw(st.sampled_from(sorted(files)))
    path = aux.with_suffix(suffix)
    path.write_text("\n".join(data.draw(mutated(files[suffix]))) + "\n")
    try:
        loads_or_names_the_line(
            lambda: load_bookshelf(aux)[0],
            r"d\.(nodes|nets|pl|scl):\d+: |d\.scl: no CoreRow records",
        )
    finally:
        path.write_text("\n".join(files[suffix]) + "\n")

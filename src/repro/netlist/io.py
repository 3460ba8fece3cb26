"""Plain-text netlist and placement serialization.

A deliberately simple line-oriented format (in the spirit of bookshelf
``.nodes``/``.nets`` but in one file) so benchmark circuits and placements
can be saved, diffed and reloaded without any binary dependencies.

Format::

    # repro netlist v1
    netlist <name>
    cell <name> <width> <height> <kind> <movable|fixed> <x|-> <y|-> \
        <delay> <input_cap> <power> <is_register>
    net <name> <weight> <cell>:<dir>:<dx>:<dy> ...

The format is lossless or loud: :func:`dump_netlist` writes every cell
attribute, net weight and pin exactly (floats as ``repr``), and raises
``ValueError`` for a name it cannot carry.  The header keeps the whole
design name, spaces included.  Because of that, the text written for a
netlist is its *canonical text*: a netlist pickles as it, and parsing it
gives back an equal netlist.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Tuple, Union

from .builder import NetlistBuilder
from .cell import Cell, CellKind
from .memo import DESIGNS, content_key
from .net import PinDirection
from .netlist import Netlist
from .placement import Placement

MAGIC = "# repro netlist v1"
PLACEMENT_MAGIC = "# repro placement v1"

PathLike = Union[str, Path]


_WHITESPACE = re.compile(r"\s")


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _check_names(what: str, names: Sequence[str]) -> None:
    """Raise ``ValueError`` unless every name is one non-empty token."""
    if all(names) and not _WHITESPACE.search("".join(names)):
        return
    bad = next(n for n in names if not n or _WHITESPACE.search(n))
    raise ValueError(
        f"{what} name {bad!r} cannot be written in the repro netlist "
        "format: names must be non-empty and free of whitespace"
    )


def dump_netlist(netlist: Netlist, stream: TextIO) -> None:
    """Write the netlist to *stream* in the repro text format.

    Raises ``ValueError`` for names the format cannot carry: an empty
    name, a cell or net name containing whitespace, or a design name with
    a line break or leading/trailing whitespace.
    """
    name = netlist.name
    if not name or name != name.strip() or "\n" in name or "\r" in name:
        raise ValueError(
            f"netlist name {name!r} cannot be written in the repro netlist "
            "format: it must be non-empty, on one line, and not start or "
            "end with whitespace"
        )
    _check_names("cell", [cell.name for cell in netlist.cells])
    _check_names("net", [net.name for net in netlist.nets])
    stream.write(MAGIC + "\n")
    stream.write(f"netlist {name}\n")
    for cell in netlist.cells:
        fixed = "fixed" if cell.fixed else "movable"
        x = _fmt_float(cell.x) if cell.x is not None else "-"
        y = _fmt_float(cell.y) if cell.y is not None else "-"
        stream.write(
            f"cell {cell.name} {_fmt_float(cell.width)} {_fmt_float(cell.height)} "
            f"{cell.kind.value} {fixed} {x} {y} {_fmt_float(cell.delay)} "
            f"{_fmt_float(cell.input_cap)} {_fmt_float(cell.power)} "
            f"{int(cell.is_register)}\n"
        )
    for net in netlist.nets:
        pin_tokens = " ".join(
            f"{netlist.cells[p.cell].name}:{p.direction.value}:"
            f"{_fmt_float(p.dx)}:{_fmt_float(p.dy)}"
            for p in net.pins
        )
        stream.write(f"net {net.name} {_fmt_float(net.weight)} {pin_tokens}\n")


def save_netlist(netlist: Netlist, path: PathLike) -> None:
    """Write the netlist to a file in the repro text format."""
    Path(path).write_text(netlist_to_string(netlist), encoding="utf-8")


def parse_netlist(stream: TextIO, *, source: Optional[str] = None) -> Netlist:
    """Parse a netlist from a repro-format text stream.

    A malformed record raises ``ValueError`` naming its line: as
    ``<source>:<line>: ...`` when *source* names the file, else as
    ``line <line>: ...``.
    """

    def error(lineno: int, message: object) -> ValueError:
        where = f"{source}:{lineno}" if source else f"line {lineno}"
        return ValueError(f"{where}: {message}")

    first = stream.readline().rstrip("\n")
    if first != MAGIC:
        raise error(1, f"not a repro netlist file (header {first!r})")
    builder: NetlistBuilder = NetlistBuilder("unnamed")
    first_record = True
    for lineno, raw in enumerate(stream, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "netlist":
                # A later one would silently drop every record before it.
                if not first_record:
                    raise ValueError("a netlist record may only come first")
                # The rest of the line: a design name may hold spaces.
                builder = NetlistBuilder(line.split(None, 1)[1])
            elif kind == "cell":
                _parse_cell(builder, tokens)
            elif kind == "net":
                _parse_net(builder, tokens)
            else:
                raise ValueError(f"unknown record {kind!r}")
        except (IndexError, ValueError, KeyError) as exc:
            raise error(lineno, exc) from exc
        first_record = False
    return builder.build()


def _parse_cell(builder: NetlistBuilder, tokens: List[str]) -> None:
    (
        _,
        name,
        width,
        height,
        kind,
        mobility,
        x,
        y,
        delay,
        input_cap,
        power,
        is_register,
    ) = tokens
    common = dict(
        kind=CellKind(kind),
        delay=float(delay),
        input_cap=float(input_cap),
        power=float(power),
        is_register=bool(int(is_register)),
    )
    if mobility == "fixed":
        builder.add_fixed_cell(
            name, float(width), float(height), x=float(x), y=float(y), **common
        )
    else:
        builder.add_cell(
            name,
            float(width),
            float(height),
            x=None if x == "-" else float(x),
            y=None if y == "-" else float(y),
            **common,
        )


def _parse_net(builder: NetlistBuilder, tokens: List[str]) -> None:
    name = tokens[1]
    weight = float(tokens[2])
    pins = []
    for token in tokens[3:]:
        cell_name, direction, dx, dy = token.rsplit(":", 3)
        pins.append((cell_name, direction, float(dx), float(dy)))
    builder.add_net(name, pins, weight=weight)


def load_netlist(path: PathLike) -> Netlist:
    """Load a netlist from a repro-format text file.

    Goes through the design memo like :func:`netlist_from_string`: the
    same file content returns the same netlist while it is in use.  Parse
    errors name the file and the line (``<file>:<line>: ...``).
    """
    path = Path(path)
    text = path.read_bytes().decode("utf-8")
    return _memo_parse(text, canonical=False, source=path.name)


def _text_key(text: str) -> str:
    return content_key(b"netlist", text.encode("utf-8"))


def _canonical(netlist: Netlist) -> Tuple[str, str]:
    """``(text, memo key)`` of *netlist*, computed once per object."""
    if netlist._canonical is None:
        buf = io.StringIO()
        dump_netlist(netlist, buf)
        text = buf.getvalue()
        netlist._canonical = (text, _text_key(text))
    return netlist._canonical


def netlist_to_string(netlist: Netlist) -> str:
    """The netlist's canonical repro-format text.

    Computed once per object and kept on it (netlists are immutable), so
    pickling, job specs and cache signatures all reuse one string.
    """
    return _canonical(netlist)[0]


def _pickled_text(netlist: Netlist) -> str:
    """What a netlist pickles as (``Netlist.__reduce__``): its canonical
    text, with the netlist made the memo's answer for that text, so
    unpickling in this process returns the object that was pickled."""
    text, key = _canonical(netlist)
    DESIGNS.adopt(key, netlist)
    return text


def netlist_from_string(text: str) -> Netlist:
    """Parse a netlist from a repro-format string.

    Parsed designs are shared through :mod:`repro.netlist.memo`, keyed
    by the SHA-256 of the text: in one process, the same text returns the
    same (immutable) netlist while it is in use.
    """
    return _memo_parse(text, canonical=False)


def _netlist_from_pickle(text: str) -> Netlist:
    """Unpickle a netlist from its canonical text (``Netlist.__reduce__``)."""
    return _memo_parse(text, canonical=True)


def _memo_parse(
    text: str, *, canonical: bool, source: Optional[str] = None
) -> Netlist:
    key = _text_key(text)

    def parse():
        netlist = parse_netlist(io.StringIO(text, newline=None), source=source)
        if canonical:  # pickled text is the netlist's own canonical text
            netlist._canonical = (text, key)
        return netlist, None

    return DESIGNS.load(key, parse)[0]


# ----------------------------------------------------------------------
# Placements
# ----------------------------------------------------------------------
def save_placement(placement: Placement, path: PathLike) -> None:
    """Write cell-center coordinates to a repro placement file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(PLACEMENT_MAGIC + "\n")
        f.write(f"netlist {placement.netlist.name}\n")
        for cell, x, y in zip(placement.netlist.cells, placement.x, placement.y):
            f.write(f"{cell.name} {_fmt_float(x)} {_fmt_float(y)}\n")


def load_placement(netlist: Netlist, path: PathLike) -> Placement:
    """Read a placement file back onto *netlist* (all cells required)."""
    coords = {}
    with open(path, "r", encoding="utf-8") as f:
        first = f.readline().rstrip("\n")
        if first != PLACEMENT_MAGIC:
            raise ValueError(f"not a repro placement file (header {first!r})")
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("netlist "):
                continue
            name, x, y = line.split()
            coords[name] = (float(x), float(y))
    placement = Placement(
        netlist,
        x=netlist.fixed_x.copy(),
        y=netlist.fixed_y.copy(),
    )
    for cell in netlist.cells:
        if cell.name not in coords:
            raise ValueError(f"placement file misses cell {cell.name!r}")
        x, y = coords[cell.name]
        if not cell.fixed:
            placement.x[cell.index] = x
            placement.y[cell.index] = y
    placement.reset_fixed()
    return placement

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
import itertools
import math
import re
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .builder import DIRECTION_CODE
from .cell import CELL_KINDS, CellKind, check_cell
from .memo import DESIGNS, content_key
from .net import PIN_DIRECTIONS, PinDirection, check_net
from .netlist import Netlist
from .placement import Placement
from .records import FirstError, first_repeat, gather, raised, tokens_by_line

MAGIC = "# repro netlist v1"
PLACEMENT_MAGIC = "# repro placement v1"

PathLike = Union[str, Path]


_WHITESPACE = re.compile(r"\s")


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
    cells, nets = netlist.cell_names, netlist.net_names
    _check_names("cell", cells)
    _check_names("net", nets)
    stream.write(MAGIC + "\n")
    stream.write(f"netlist {name}\n")
    nl = netlist
    kinds = [kind.value for kind in CELL_KINDS]
    stream.writelines(
        f"cell {cell} {w!r} {h!r} {kinds[kind]} "
        f"{'fixed' if fixed else 'movable'} {repr(x) if has_x else '-'} "
        f"{repr(y) if has_y else '-'} {delay!r} {cap!r} {power!r} {int(reg)}\n"
        for cell, w, h, kind, fixed, x, y, has_x, has_y, delay, cap, power, reg
        in zip(
            cells, nl.widths.tolist(), nl.heights.tolist(), nl.kinds.tolist(),
            nl.fixed_mask.tolist(), nl.cell_x.tolist(), nl.cell_y.tolist(),
            nl.has_x.tolist(), nl.has_y.tolist(), nl.delays.tolist(),
            nl.input_caps.tolist(), nl.powers.tolist(),
            nl.register_mask.tolist(),
        )
    )
    directions = [d.value for d in PIN_DIRECTIONS]
    pins = [
        f"{cells[cell]}:{directions[d]}:{dx!r}:{dy!r}"
        for cell, d, dx, dy in zip(
            nl.pin_cell.tolist(), nl.pin_dir.tolist(), nl.pin_dx.tolist(),
            nl.pin_dy.tolist(),
        )
    ]
    ptr = nl.net_ptr.tolist()
    stream.writelines(
        f"net {net} {weight!r} {' '.join(pins[ptr[j]:ptr[j + 1]])}\n"
        for j, (net, weight) in enumerate(zip(nets, nl.net_weight.tolist()))
    )


def save_netlist(netlist: Netlist, path: PathLike) -> None:
    """Write the netlist to a file in the repro text format."""
    Path(path).write_text(netlist_to_string(netlist), encoding="utf-8")


def parse_netlist(stream: TextIO, *, source: Optional[str] = None) -> Netlist:
    """Parse a netlist from a repro-format text stream.

    A malformed record raises ``ValueError`` naming its line: as
    ``<source>:<line>: ...`` when *source* names the file, else as
    ``line <line>: ...``.
    """
    return _parse_text(stream.read(), source)


def _parse_text(text: str, source: Optional[str]) -> Netlist:
    """Parse repro-format *text* (newlines already ``\\n``).

    The text is split into tokens once; each field is then converted and
    checked as one column (:class:`~repro.netlist.records.FirstError`),
    and the error raised names the line a line-by-line reader would
    reject first.
    """

    def error(lineno: int, message: object) -> ValueError:
        where = f"{source}:{lineno}" if source else f"line {lineno}"
        return ValueError(f"{where}: {message}")

    header = _line(text, 0)
    if header != MAGIC:
        raise error(1, f"not a repro netlist file (header {header!r})")
    tokens, offsets = tokens_by_line(text)
    counts = np.diff(offsets)
    lines = np.flatnonzero(counts[1:]) + 1  # non-blank lines after the header
    kinds = tokens[offsets[lines]]
    comment = np.fromiter(
        map(str.startswith, kinds, itertools.repeat("#")), bool, len(kinds)
    )
    lines, kinds = lines[~comment], kinds[~comment]
    is_cell, is_net = kinds == "cell", kinds == "net"
    name = "unnamed"
    stop: Optional[Tuple[int, Exception]] = None  # a record of no known kind
    other = np.flatnonzero(~(is_cell | is_net))
    if other.size and other[0] == 0 and kinds[0] == "netlist":
        # The rest of the line: a design name may hold spaces.
        rest = _line(text, int(lines[0])).strip().split(None, 1)
        if len(rest) < 2:
            stop = (int(lines[0]) + 1, ValueError("a netlist record needs a name"))
        name = rest[-1]
        other = other[1:]
    if other.size and stop is None:
        k = int(other[0])
        # A later netlist record would silently drop every record before it.
        stop = (int(lines[k]) + 1, ValueError(
            "a netlist record may only come first" if kinds[k] == "netlist"
            else f"unknown record {kinds[k]!r}"
        ))
    stop_at = stop[0] if stop else len(offsets)
    cell_at = lines[is_cell] + 1
    net_at = lines[is_net] + 1
    cell_at = cell_at[: np.searchsorted(cell_at, stop_at)]
    net_at = net_at[: np.searchsorted(net_at, stop_at)]

    cells = FirstError(cell_at.size)
    names, columns = _cell_columns(tokens, offsets[cell_at - 1], counts[cell_at - 1], cells)
    if cells.error is not None:
        stop_at = min(stop_at, int(cell_at[cells.limit]))
        net_at = net_at[: np.searchsorted(net_at, stop_at)]
    nets = FirstError(net_at.size)
    net_names, net_columns = _net_columns(
        tokens, offsets[net_at - 1], counts[net_at - 1], net_at, nets,
        names, cell_at,
    )
    if nets.error is not None:
        raise error(int(net_at[nets.limit]), nets.error)
    if cells.error is not None and cell_at[cells.limit] == stop_at:
        raise error(stop_at, cells.error)
    if stop is not None:
        raise error(*stop)
    return Netlist.from_columns(name, names, net_names, **columns, **net_columns)


def _line(text: str, k: int) -> str:
    """Line *k* of ``text.split("\\n")``, without splitting the rest."""
    start = 0
    for _ in range(k):
        start = text.index("\n", start) + 1
    end = text.find("\n", start)
    return text[start:] if end < 0 else text[start:end]


_KIND_CODES = {kind.value: code for code, kind in enumerate(CELL_KINDS)}
_REGISTER = {"0": False, "1": True}


def _coded(
    first: FirstError, table: dict, parse: Callable[[str], object],
    tokens: Sequence[str],
) -> List:
    """The codes of *tokens* in *table*.  A token the table lacks is
    *parse*d instead, which gives its code or rejects it with its own
    message; the common case makes no Python call per token."""
    codes = list(map(table.get, tokens[: first.limit]))
    if None in codes:
        codes = first.convert(lambda t: table[t] if t in table else parse(t), tokens)
    return codes


def _cell_columns(
    tokens: np.ndarray, off: np.ndarray, count: np.ndarray, first: FirstError
) -> Tuple[List[str], dict]:
    """The names and columns of the ``cell`` records at token offsets
    *off*, checked in the order a record is: its fields convert, then its
    values, then its name."""
    first.check(count != 12, lambda k: ValueError(
        "a cell record has 12 fields: cell name width height kind mobility "
        f"x y delay input_cap power is_register (got {count[k]})"
    ))

    def field(f: int) -> List[str]:
        return gather(tokens, off[: first.limit] + f)

    names = field(1)
    kinds = _coded(first, _KIND_CODES, lambda t: CELL_KINDS.index(CellKind(t)), field(4))
    delays = first.convert(float, field(8))
    caps = first.convert(float, field(9))
    powers = first.convert(float, field(10))
    registers = _coded(first, _REGISTER, lambda t: bool(int(t)), field(11))
    widths = first.convert(float, field(2))
    heights = first.convert(float, field(3))
    at = off[: first.limit]
    fixed = tokens[at + 5] == "fixed"
    # "-" states no hint (read as 0.0); a fixed cell needs a number.
    x, y = field(6), field(7)
    has_x, has_y = tokens[at + 6] != "-", tokens[at + 7] != "-"
    xs = first.convert(float, [t if h or f else "0" for t, h, f in zip(x, has_x, fixed)])
    ys = first.convert(float, [t if h or f else "0" for t, h, f in zip(y, has_y, fixed)])
    n = first.limit
    values = dict(
        widths=np.array(widths[:n]), heights=np.array(heights[:n]),
        kinds=kinds[:n], fixed_mask=fixed[:n],
        cell_x=np.array(xs[:n]), cell_y=np.array(ys[:n]),
        has_x=has_x[:n], has_y=has_y[:n], delays=np.array(delays[:n]),
        input_caps=np.array(caps[:n]), powers=np.array(powers[:n]),
        register_mask=registers[:n],
    )
    w, h, d = values["widths"], values["heights"], values["delays"]
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(w) & np.isfinite(h) & (w > 0) & (h > 0))
        bad |= fixed[:n] & ~(np.isfinite(values["cell_x"]) & np.isfinite(values["cell_y"]))
        bad |= ~(np.isfinite(d) & np.isfinite(values["input_caps"])
                 & np.isfinite(values["powers"]))
        bad |= d < 0
    first.check(bad, lambda k: raised(
        check_cell, names[k], widths[k], heights[k], fixed[k],
        xs[k] if has_x[k] else None, ys[k] if has_y[k] else None,
        delays[k], caps[k], powers[k],
    ))
    _check_unique(first, names, "cell")
    n = first.limit
    return names[:n], {column: v[:n] for column, v in values.items()}


def _check_unique(first: FirstError, names: Sequence[str], what: str) -> None:
    """Fail at the first record whose name an earlier record took."""
    k = first_repeat(names[: first.limit])
    if k is not None:
        first.fail(k, ValueError(f"duplicate {what} name {names[k]!r}"))


def _net_columns(
    tokens: np.ndarray,
    off: np.ndarray,
    count: np.ndarray,
    net_at: np.ndarray,
    first: FirstError,
    cell_names: List[str],
    cell_at: np.ndarray,
) -> Tuple[List[str], dict]:
    """The names and the net and pin columns of the ``net`` records at
    token offsets *off*, checked in the order a record is.  A pin may name
    only a cell of an earlier line."""
    first.check(count < 3, lambda k: ValueError(
        "a net record needs a name and a weight"
    ))
    m = first.limit
    names = gather(tokens, off[:m] + 1)
    weights = first.convert(float, gather(tokens, off[:m] + 2))
    m = first.limit
    degree = count[:m] - 3
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(degree, out=ptr[1:])
    pin_net = np.repeat(np.arange(m), degree)
    pin_tokens = gather(
        tokens, np.arange(int(ptr[-1])) + np.repeat(off[:m] + 3 - ptr[:-1], degree)
    )
    pins = FirstError(len(pin_tokens))
    cells, dirs, dx, dy = _pin_fields(pin_tokens, pins)
    dxs = pins.convert(float, dx)
    dys = pins.convert(float, dy)
    first.absorb(pins, pin_net)

    _check_unique(first, names, "net")
    # Then pin by pin: its cell, its offsets, its direction.
    pins = FirstError(int(ptr[first.limit]))
    index = {cell: k for k, cell in enumerate(cell_names)}
    cell = np.fromiter(
        map(index.get, cells[: pins.limit], itertools.repeat(-1)),
        dtype=np.int64, count=pins.limit,
    )
    defined_at = np.append(cell_at[: len(cell_names)], 0)
    unknown = (cell < 0) | (defined_at[cell] > net_at[pin_net[: pins.limit]])
    pins.check(unknown, lambda p: KeyError(
        f"net {names[pin_net[p]]!r} references unknown cell {cells[p]!r}"
    ))
    dxs, dys = np.array(dxs[: pins.limit]), np.array(dys[: pins.limit])
    pins.check(~(np.isfinite(dxs) & np.isfinite(dys)), lambda p: ValueError(
        f"net {names[pin_net[p]]!r}: non-finite pin offset "
        f"({float(dxs[p])!r}, {float(dys[p])!r}) on cell {cells[p]!r}"
    ))
    codes = np.array(
        _coded(pins, DIRECTION_CODE, lambda t: PIN_DIRECTIONS.index(PinDirection(t)), dirs),
        dtype=np.int8,
    )
    first.absorb(pins, pin_net)

    m = first.limit
    p = int(ptr[m])
    drivers = np.bincount(pin_net[:p], weights=codes[:p], minlength=m)
    weight = np.array(weights[:m])
    with np.errstate(invalid="ignore"):
        bad = (degree[:m] < 1) | ~(np.isfinite(weight) & (weight > 0)) | (drivers > 1)
    first.check(bad, lambda j: raised(
        check_net, names[j], int(degree[j]), weights[j], int(drivers[j])
    ))
    m = first.limit
    p = int(ptr[m])
    return names[:m], dict(
        net_weight=weight[:m], net_ptr=ptr[: m + 1], pin_cell=cell[:p],
        pin_dir=codes[:p], pin_dx=dxs[:p], pin_dy=dys[:p],
    )


def _pin_fields(tokens: List[str], pins: FirstError) -> Tuple[Sequence[str], ...]:
    """The ``cell``, ``direction``, ``dx`` and ``dy`` columns of pin tokens
    ``cell:direction:dx:dy`` (a cell name may hold colons)."""
    colons = list(map(str.count, tokens, itertools.repeat(":")))
    if colons.count(3) == len(tokens):  # one split for all: 4 fields each
        fields = ":".join(tokens).split(":") if tokens else []
        return fields[0::4], fields[1::4], fields[2::4], fields[3::4]
    pins.check([c < 3 for c in colons], lambda p: ValueError(
        f"malformed pin {tokens[p]!r} (want cell:direction:dx:dy)"
    ))
    parts = [token.rsplit(":", 3) for token in tokens[: pins.limit]]
    return tuple(zip(*parts)) or ((),) * 4


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
        netlist = _parse_text(
            text.replace("\r\n", "\n").replace("\r", "\n"), source
        )
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
        for name, x, y in zip(
            placement.netlist.cell_names, placement.x.tolist(), placement.y.tolist()
        ):
            f.write(f"{name} {x!r} {y!r}\n")


def load_placement(netlist: Netlist, path: PathLike) -> Placement:
    """Read a placement file back onto *netlist*.

    Every cell needs exactly one ``<name> <x> <y>`` record with finite
    coordinates; fixed cells keep their netlist positions.  A bad record
    raises ``ValueError`` as ``<file>:<line>: ...``, a missing cell as
    ``<file>: ...``.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").split("\n")

    def error(lineno: int, message: str) -> ValueError:
        return ValueError(f"{path.name}:{lineno}: {message}")

    if lines[0] != PLACEMENT_MAGIC:
        raise error(1, f"not a repro placement file (header {lines[0]!r})")
    index = {name: i for i, name in enumerate(netlist.cell_names)}
    x, y = netlist.fixed_x.copy(), netlist.fixed_y.copy()
    first_line: Dict[str, int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("netlist "):
            continue
        parts = line.split()
        try:
            if len(parts) != 3:
                raise ValueError
            name, cx, cy = parts[0], float(parts[1]), float(parts[2])
        except ValueError:
            raise error(
                lineno, f"malformed placement record {line!r} (want: name x y)"
            ) from None
        if name not in index:
            raise error(lineno, f"placement names unknown cell {name!r}")
        if name in first_line:
            raise error(
                lineno,
                f"duplicate record for cell {name!r} "
                f"(first at line {first_line[name]})",
            )
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise error(lineno, f"cell {name!r} has non-finite position ({cx}, {cy})")
        first_line[name] = lineno
        x[index[name]], y[index[name]] = cx, cy
    if len(first_line) != netlist.num_cells:
        missing = next(n for n in netlist.cell_names if n not in first_line)
        raise ValueError(f"{path.name}: placement file misses cell {missing!r}")
    return Placement(netlist, x, y)  # re-pins the fixed cells

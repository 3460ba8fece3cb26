"""GSRC/UCLA Bookshelf format I/O (.aux/.nodes/.nets/.pl/.scl).

Bookshelf is the lingua franca of academic placement; supporting it means
real benchmark suites can be loaded and our placements inspected by other
tools.  Conventions implemented here:

* ``.nodes`` — cell names and sizes; ``terminal`` marks fixed cells.
* ``.nets`` — hyperedges; pin offsets are measured from the *cell center*;
  direction letters ``I``/``O``/``B`` (``B`` treated as input).
* ``.pl`` — *lower-left* cell coordinates; ``/FIXED`` marks fixed cells.
* ``.scl`` — core rows (horizontal, uniform height).
* ``.aux`` — the index file tying the pieces together.

Timing/power attributes (delay, input capacitance, power, register flag)
have no Bookshelf representation, so a round trip through Bookshelf keeps
structure and geometry but resets those attributes to defaults.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..geometry import PlacementRegion, Rect, Row
from .builder import KIND_CODE
from .cell import CellKind
from .memo import content_key
from .netlist import Netlist
from .placement import Placement
from . import records
from .records import FirstError

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def save_bookshelf(
    netlist: Netlist,
    region: PlacementRegion,
    base: PathLike,
    placement: Optional[Placement] = None,
) -> Path:
    """Write ``<base>.aux`` plus the four component files; returns aux path."""
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    stem = base.name
    _write_nodes(netlist, base.with_suffix(".nodes"))
    _write_nets(netlist, base.with_suffix(".nets"))
    _write_pl(netlist, base.with_suffix(".pl"), placement)
    _write_scl(region, base.with_suffix(".scl"))
    aux = base.with_suffix(".aux")
    aux.write_text(
        f"RowBasedPlacement : {stem}.nodes {stem}.nets {stem}.pl {stem}.scl\n",
        encoding="utf-8",
    )
    return aux


def _write_nodes(netlist: Netlist, path: Path) -> None:
    lines = ["UCLA nodes 1.0", ""]
    lines.append(f"NumNodes : {netlist.num_cells}")
    lines.append(f"NumTerminals : {netlist.num_fixed}")
    lines.extend(
        f"  {name} {w:.17g} {h:.17g}{' terminal' if fixed else ''}"
        for name, w, h, fixed in zip(
            netlist.cell_names, netlist.widths.tolist(),
            netlist.heights.tolist(), netlist.fixed_mask.tolist(),
        )
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_nets(netlist: Netlist, path: Path) -> None:
    lines = ["UCLA nets 1.0", ""]
    lines.append(f"NumNets : {netlist.num_nets}")
    lines.append(f"NumPins : {netlist.num_pins}")
    names = netlist.cell_names
    pins = [
        f"  {names[cell]} {'O' if out else 'I'} : {dx:.17g} {dy:.17g}"
        for cell, out, dx, dy in zip(
            netlist.pin_cell.tolist(), netlist.pin_dir.tolist(),
            netlist.pin_dx.tolist(), netlist.pin_dy.tolist(),
        )
    ]
    ptr = netlist.net_ptr.tolist()
    for j, (name, degree) in enumerate(
        zip(netlist.net_names, netlist.net_degree.tolist())
    ):
        lines.append(f"NetDegree : {degree}  {name}")
        lines.extend(pins[ptr[j]:ptr[j + 1]])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_pl(
    netlist: Netlist, path: Path, placement: Optional[Placement]
) -> None:
    lines = ["UCLA pl 1.0", ""]
    if placement is not None:
        cx, cy = placement.x, placement.y
    else:  # fixed cells at their centers, movable ones at the origin
        cx, cy = netlist.fixed_x, netlist.fixed_y
    xlo = cx - netlist.widths / 2.0
    ylo = cy - netlist.heights / 2.0
    lines.extend(
        f"{name} {x:.17g} {y:.17g} : N{' /FIXED' if fixed else ''}"
        for name, x, y, fixed in zip(
            netlist.cell_names, xlo.tolist(), ylo.tolist(),
            netlist.fixed_mask.tolist(),
        )
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_scl(region: PlacementRegion, path: Path) -> None:
    lines = ["UCLA scl 1.0", ""]
    lines.append(f"NumRows : {region.num_rows}")
    for row in region.rows:
        lines.extend(
            [
                "CoreRow Horizontal",
                f"  Coordinate : {row.y:.17g}",
                f"  Height : {row.height:.17g}",
                "  Sitewidth : 1",
                "  Sitespacing : 1",
                "  Siteorient : 1",
                "  Sitesymmetry : 1",
                f"  SubrowOrigin : {row.xlo:.17g}  NumSites : {int(row.width)}",
                "End",
            ]
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def _component_paths(aux_path: Path, aux_text: str) -> Dict[str, Path]:
    """The ``.nodes``/``.nets``/``.pl``/``.scl`` files an .aux names."""
    tokens = aux_text.split(":")
    if len(tokens) < 2:
        raise ValueError(f"malformed aux file {aux_path}")
    directory = aux_path.parent
    by_ext: Dict[str, Path] = {}
    for name in tokens[1].split():
        by_ext[Path(name).suffix] = directory / name
    for ext in (".nodes", ".nets", ".pl", ".scl"):
        if ext not in by_ext:
            raise ValueError(f"aux file missing a {ext} entry")
    return by_ext


def bookshelf_key(aux_path: PathLike) -> str:
    """Design-memo key of a Bookshelf set: a SHA-256 over the bytes of the
    .aux file and the SHA-256 of each of the four files it names (see
    :func:`repro.netlist.memo.content_key`)."""
    aux_path = Path(aux_path)
    aux_bytes = aux_path.read_bytes()
    parts = [b"bookshelf", aux_bytes]
    components = _component_paths(aux_path, aux_bytes.decode("utf-8"))
    for ext, path in sorted(components.items()):
        parts += [ext.encode("utf-8"), _file_sha256(path)]
    return content_key(*parts)


def _file_sha256(path: Path) -> bytes:
    # In chunks: the files of a 100k-cell set hold about 11 MB, ten times
    # that at 1M cells, and the key is taken twice per parse.
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.digest()


def load_bookshelf(
    aux_path: PathLike,
) -> Tuple[Netlist, PlacementRegion, Placement]:
    """Load a Bookshelf design from its .aux file."""
    aux_path = Path(aux_path)
    by_ext = _component_paths(aux_path, aux_path.read_text(encoding="utf-8"))

    names, widths, heights, terminal = _read_nodes(by_ext[".nodes"])
    index = {name: k for k, name in enumerate(names)}
    cx, cy, placed, pl_fixed = _read_pl(by_ext[".pl"], index, widths, heights)
    region = _read_scl(by_ext[".scl"])
    net_names, nets = _read_nets(by_ext[".nets"], index)

    n = len(names)
    fixed = terminal | pl_fixed
    kinds = np.where(
        heights > 1.5 * region.row_height, KIND_CODE[CellKind.BLOCK],
        KIND_CODE[CellKind.STANDARD],
    )
    kinds[fixed] = KIND_CODE[CellKind.PAD]
    netlist = Netlist.from_columns(
        aux_path.stem, names, net_names,
        widths=widths, heights=heights, kinds=kinds, fixed_mask=fixed,
        cell_x=np.where(fixed, cx, 0.0), cell_y=np.where(fixed, cy, 0.0),
        has_x=fixed, has_y=fixed, delays=np.zeros(n),
        input_caps=np.full(n, 5.0e-13), powers=np.zeros(n),
        register_mask=np.zeros(n, dtype=bool), **nets,
    )
    placement = Placement.at_center(netlist, region)
    movable = placed & ~fixed
    placement.x[movable] = cx[movable]
    placement.y[movable] = cy[movable]
    return netlist, region, placement


def _data_lines(path: Path) -> Tuple[List[int], List[str]]:
    """The meaningful lines of a Bookshelf file: ``(numbers, texts)``.

    Strips ``#`` comments, blank lines (including trailing ones) and the
    ``UCLA ...`` header; line numbers are 1-based positions in the *raw*
    file so diagnostics point at the actual offending line.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = list(map(str.strip, lines))
    keep = list(map(bool, lines))
    if "UCLA" in text:
        header = map(str.startswith, lines, itertools.repeat("UCLA"))
        for k in itertools.compress(range(len(lines)), header):
            keep[k] = False
    numbers = list(itertools.compress(range(1, len(lines) + 1), keep))
    return numbers, list(itertools.compress(lines, keep))


def _records(
    texts: List[str], colons: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tokens, offsets, counts)`` of data lines, ``:`` read as a space
    when *colons*.  Two sentinel tokens follow the real ones: ``"0"`` at
    ``len(tokens) - 2`` and ``""`` at ``len(tokens) - 1``, for absent
    optional fields."""
    block = "\n".join(texts)
    tokens, offsets = records.tokens_by_line(
        block.replace(":", " ") if colons else block, sentinels=("0", "")
    )
    if not texts:
        offsets = offsets[:1]
    return tokens, offsets[:-1], np.diff(offsets)


def _field(
    tokens: np.ndarray, off: np.ndarray, count: np.ndarray, f: int,
    absent: int = -1,
) -> List[str]:
    """Field *f* of each record, or sentinel *absent* (``-2`` for
    ``"0"``, ``-1`` for ``""``) where a record is shorter."""
    count = count[: len(off)]
    return records.gather(tokens, np.where(count > f, off + f, len(tokens) + absent))


def _parse_error(path: Path, lineno: int, message: str) -> ValueError:
    return ValueError(f"{path.name}:{lineno}: {message}")


def _finite(token: str) -> float:
    """*token* as a float; ``ValueError`` unless it is a finite number."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token!r}")
    return value


def _read_nodes(path: Path) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
    """``(names, widths, heights, terminal flags)`` in file order."""
    numbers, texts = _data_lines(path)
    tokens, off, count = _records(texts)
    counts_line = np.fromiter(
        map(str.startswith, texts, itertools.repeat(("NumNodes", "NumTerminals"))),
        bool, len(texts),
    )
    node = ~counts_line
    at = np.asarray(numbers, dtype=np.int64)[node]
    texts = list(itertools.compress(texts, node))
    off, count = off[node], count[node]
    first = FirstError(len(texts))
    first.check(count < 3)
    widths = first.convert(float, _field(tokens, off[: first.limit], count, 1))
    heights = first.convert(float, _field(tokens, off[: first.limit], count, 2))
    if first.limit < len(texts):
        first.fail(first.limit, _parse_error(
            path, at[first.limit],
            f"malformed node record {texts[first.limit]!r} "
            "(want: name width height)",
        ))
    names = _field(tokens, off[: first.limit], count, 0)
    k = records.first_repeat(names)
    if k is not None:
        first.fail(k, _parse_error(
            path, at[k],
            f"duplicate node {names[k]!r} (first at line "
            f"{at[names.index(names[k])]})",
        ))
    n = first.limit
    w, h = np.array(widths[:n]), np.array(heights[:n])
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(w) & np.isfinite(h) & (w > 0) & (h > 0))
    first.check(bad, lambda k: _parse_error(
        path, at[k],
        f"node {names[k]!r} needs a finite, positive size, got "
        f"{widths[k]} x {heights[k]}",
    ))
    if first.error is not None:
        raise first.error
    # "terminal" among a record's extra fields marks a fixed cell.
    term = np.flatnonzero(tokens == "terminal")
    record = np.searchsorted(off, term, side="right") - 1
    terminal = np.zeros(n, dtype=bool)
    terminal[record[(record >= 0) & (term - off[record] >= 3)]] = True
    return names, w, h, terminal


def _read_pl(
    path: Path, index: Dict[str, int], widths: np.ndarray, heights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(cx, cy, placed, fixed)``: cell centers from the lower-left
    corners of a .pl file (a cell's last record wins), whether a cell has a
    record, and whether one of its records says ``/FIXED``.  A cell
    without a record sits at (0, 0)."""
    numbers, texts = _data_lines(path)
    tokens, off, count = _records(texts, colons=True)
    first = FirstError(len(texts))
    first.check(count < 3)
    xs = first.convert(_finite, _field(tokens, off[: first.limit], count, 1))
    ys = first.convert(_finite, _field(tokens, off[: first.limit], count, 2))
    if first.limit < len(texts):
        first.fail(first.limit, _parse_error(
            path, numbers[first.limit],
            f"malformed placement record {texts[first.limit]!r} (want: name "
            "x y ..., with finite x and y)",
        ))
    names = _field(tokens, off[: first.limit], count, 0)
    cells = np.fromiter(
        map(index.get, names, itertools.repeat(-1)), np.int64, len(names)
    )
    first.check(cells < 0, lambda k: _parse_error(
        path, numbers[k], f"placement references unknown node {names[k]!r}"
    ))
    if first.error is not None:
        raise first.error
    n = len(widths)
    cx, cy = np.zeros(n), np.zeros(n)
    placed = np.zeros(n, dtype=bool)
    fixed = np.zeros(n, dtype=bool)
    fixed[cells[np.fromiter(
        map(operator.contains, texts, itertools.repeat("/FIXED")), bool, len(texts)
    )]] = True
    _, last = np.unique(cells[::-1], return_index=True)
    last = cells.size - 1 - last
    cell = cells[last]
    cx[cell] = np.array(xs)[last] + widths[cell] / 2.0
    cy[cell] = np.array(ys)[last] + heights[cell] / 2.0
    placed[cell] = True
    return cx, cy, placed, fixed


def _read_nets(path: Path, index: Dict[str, int]) -> Tuple[List[str], dict]:
    """The net names and the net and pin columns of a .nets file.

    Headers and pin lines are converted and checked column by column; of
    several errors, the one a line-by-line reader meets first is raised.
    """
    numbers, texts = _data_lines(path)
    tokens, off, count = _records(texts, colons=True)
    heads = np.flatnonzero(np.fromiter(
        map(str.startswith, texts, itertools.repeat("NetDegree")), bool, len(texts)
    ))
    nets = FirstError(heads.size)
    nets.check(count[heads] < 2)
    degree = np.array(
        nets.convert(int, _field(tokens, off[heads[: nets.limit]], count[heads], 1)),
        dtype=np.int64,
    )
    if nets.limit < heads.size:
        h = heads[nets.limit]
        nets.fail(nets.limit, _parse_error(
            path, numbers[h], f"malformed net header {texts[h]!r}"
        ))
    names = _field(tokens, off[heads[: nets.limit]], count[heads], 2)
    for j in np.flatnonzero(count[heads[: nets.limit]] < 3).tolist():
        names[j] = f"net{j}"
    follow = np.diff(np.append(heads, len(texts))) - 1
    nets.check(degree > follow[: degree.size], lambda j: _parse_error(
        path, numbers[heads[j]],
        f"net {names[j]!r} declares {degree[j]} pins but only {follow[j]} follow",
    ))
    first = FirstError(numbers[-1] + 2 if numbers else 0)  # by line number
    counts = degree[: nets.limit]
    if nets.error is not None:
        k = nets.limit
        at = numbers[heads[k]]
        if k < degree.size:  # truncated: its pin lines are read first
            at = numbers[heads[k + 1]] if k + 1 < heads.size else numbers[-1] + 1
            counts = np.append(counts, follow[k])
        first.fail(at, nets.error)
    kept = np.flatnonzero(counts > 0)  # nets without pins are skipped
    complete = int(np.searchsorted(kept, nets.limit))
    names = [names[j] for j in kept.tolist()]
    head_at = np.asarray(numbers, dtype=np.int64)[heads[kept]]
    counts = counts[kept]
    ptr = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    pin_net = np.repeat(np.arange(kept.size), counts)
    lines = np.arange(int(ptr[-1])) + np.repeat(heads[kept] + 1 - ptr[:-1], counts)
    poff, pcount = off[lines], count[lines]
    pins = FirstError(lines.size)
    pins.check(pcount < 1)
    dx = pins.convert(float, _field(tokens, poff[: pins.limit], pcount, 2, -2))
    dy = pins.convert(float, _field(tokens, poff[: pins.limit], pcount, 3, -2))
    if pins.limit < lines.size:
        k = lines[pins.limit]
        first.found(numbers[k], _parse_error(
            path, numbers[k],
            f"malformed pin record {texts[k]!r} (want: node [I|O] : dx dy)",
        ))
    # Adding a net checks, at its header line, its name and then pin by
    # pin the node and the offsets: for the nets whose pins all parsed.
    m = int(pin_net[pins.limit]) if pins.limit < lines.size else complete
    m = min(m, complete)
    p_end = int(ptr[m])
    nodes = _field(tokens, poff[:p_end], pcount, 0)
    cell = np.fromiter(map(index.get, nodes, itertools.repeat(-1)), np.int64, p_end)
    dxs, dys = np.array(dx[:p_end]), np.array(dy[:p_end])
    bad = (cell < 0) | ~(np.isfinite(dxs) & np.isfinite(dys))
    j = records.first_repeat(names[:m])
    message = None if j is None else f"duplicate net name {names[j]!r}"
    if bad.any():
        p = int(np.argmax(bad))
        if j is None or pin_net[p] < j:
            j = int(pin_net[p])
            message = (
                f"net {names[j]!r} references unknown cell {nodes[p]!r}"
                if cell[p] < 0 else
                f"net {names[j]!r}: non-finite pin offset "
                f"({dx[p]!r}, {dy[p]!r}) on cell {nodes[p]!r}"
            )
    if message is not None:
        first.found(head_at[j], _parse_error(path, head_at[j], message))
    if first.error is not None:
        raise first.error
    # Bookshelf nets may list several outputs (e.g. bidirectional pads);
    # keep the first as driver, demote the rest to inputs.
    direction = map(str.upper, _field(tokens, poff, pcount, 1))
    out = np.fromiter(map("O".__eq__, direction), np.int64, lines.size)
    rank = np.cumsum(out)
    if out.size:
        rank -= np.repeat(rank[ptr[:-1]] - out[ptr[:-1]], counts)
    return names, dict(
        net_weight=np.ones(len(names)), net_ptr=ptr, pin_cell=cell,
        pin_dir=out * (rank == 1), pin_dx=dxs, pin_dy=dys,
    )


def _read_scl(path: Path) -> PlacementRegion:
    lines = list(zip(*_data_lines(path)))
    rows: List[Row] = []
    i = 0
    index = 0
    while i < len(lines):
        if lines[i][1].startswith("CoreRow"):
            row_lineno = lines[i][0]
            fields: Dict[str, float] = {}
            i += 1
            while i < len(lines) and lines[i][1] != "End":
                lineno, text = lines[i]
                parts = text.replace(":", " ").split()
                try:
                    if parts[0] == "Coordinate":
                        fields["y"] = _finite(parts[1])
                    elif parts[0] == "Height":
                        fields["h"] = _finite(parts[1])
                    elif parts[0] == "SubrowOrigin":
                        fields["x"] = _finite(parts[1])
                        if "NumSites" in parts:
                            k = parts.index("NumSites")
                            fields["sites"] = _finite(parts[k + 1])
                    elif parts[0] == "Sitespacing":
                        fields["spacing"] = _finite(parts[1])
                except (IndexError, ValueError):
                    raise _parse_error(
                        path, lineno, f"malformed row attribute {text!r}"
                    ) from None
                i += 1
            if "y" not in fields or "h" not in fields:
                raise _parse_error(
                    path, row_lineno,
                    "CoreRow is missing Coordinate or Height",
                )
            width = fields.get("sites", 0.0) * fields.get("spacing", 1.0)
            if not (fields["h"] > 0 and width > 0):
                raise _parse_error(
                    path, row_lineno,
                    f"CoreRow needs a positive Height and a positive width "
                    f"(NumSites x Sitespacing), got {fields['h']} and {width}",
                )
            rows.append(
                Row(
                    index=index,
                    xlo=fields.get("x", 0.0),
                    y=fields["y"],
                    width=width,
                    height=fields["h"],
                )
            )
            index += 1
        i += 1
    if not rows:
        raise ValueError(f"{path.name}: no CoreRow records in .scl file")
    xlo = min(r.xlo for r in rows)
    xhi = max(r.xhi for r in rows)
    ylo = min(r.y for r in rows)
    yhi = max(r.yhi for r in rows)
    return PlacementRegion(bounds=Rect.from_bounds(xlo, ylo, xhi, yhi), rows=rows)

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
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..geometry import PlacementRegion, Rect, Row
from .builder import NetlistBuilder
from .cell import CellKind
from .memo import content_key
from .netlist import Netlist
from .placement import Placement

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
    for cell in netlist.cells:
        terminal = " terminal" if cell.fixed else ""
        lines.append(f"  {cell.name} {cell.width:.17g} {cell.height:.17g}{terminal}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_nets(netlist: Netlist, path: Path) -> None:
    lines = ["UCLA nets 1.0", ""]
    lines.append(f"NumNets : {netlist.num_nets}")
    lines.append(f"NumPins : {netlist.num_pins}")
    for net in netlist.nets:
        lines.append(f"NetDegree : {net.degree}  {net.name}")
        for pin in net.pins:
            direction = "O" if pin.direction.value == "output" else "I"
            cell = netlist.cells[pin.cell]
            lines.append(
                f"  {cell.name} {direction} : {pin.dx:.17g} {pin.dy:.17g}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_pl(
    netlist: Netlist, path: Path, placement: Optional[Placement]
) -> None:
    lines = ["UCLA pl 1.0", ""]
    for cell in netlist.cells:
        if placement is not None:
            cx = float(placement.x[cell.index])
            cy = float(placement.y[cell.index])
        elif cell.fixed:
            cx, cy = float(cell.x), float(cell.y)
        else:
            cx = cy = 0.0
        xlo = cx - cell.width / 2.0
        ylo = cy - cell.height / 2.0
        fixed = " /FIXED" if cell.fixed else ""
        lines.append(f"{cell.name} {xlo:.17g} {ylo:.17g} : N{fixed}")
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

    sizes, fixed_names = _read_nodes(by_ext[".nodes"])
    positions, pl_fixed = _read_pl(by_ext[".pl"], sizes)
    fixed_names |= pl_fixed
    region = _read_scl(by_ext[".scl"])

    builder = NetlistBuilder(aux_path.stem)
    for name, (w, h) in sizes.items():
        if name in fixed_names:
            cx, cy = positions.get(name, (0.0, 0.0))
            builder.add_fixed_cell(name, w, h, x=cx, y=cy, kind=CellKind.PAD)
        else:
            kind = CellKind.BLOCK if h > 1.5 * region.row_height else CellKind.STANDARD
            builder.add_cell(name, w, h, kind=kind)
    _read_nets(by_ext[".nets"], builder)
    netlist = builder.build()

    placement = Placement.at_center(netlist, region)
    for cell in netlist.cells:
        if cell.name in positions and not cell.fixed:
            cx, cy = positions[cell.name]
            placement.x[cell.index] = cx
            placement.y[cell.index] = cy
    placement.reset_fixed()
    return netlist, region, placement


def _data_lines(path: Path) -> List[Tuple[int, str]]:
    """Meaningful ``(line_number, text)`` pairs of a Bookshelf file.

    Strips ``#`` comments, blank lines (including trailing ones) and the
    ``UCLA ...`` header; line numbers are 1-based positions in the *raw*
    file so diagnostics point at the actual offending line.
    """
    out = []
    for number, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if line and not line.startswith("UCLA"):
            out.append((number, line))
    return out


def _parse_error(path: Path, lineno: int, message: str) -> ValueError:
    return ValueError(f"{path.name}:{lineno}: {message}")


def _read_nodes(path: Path) -> Tuple[Dict[str, Tuple[float, float]], set]:
    sizes: Dict[str, Tuple[float, float]] = {}
    fixed = set()
    for lineno, line in _data_lines(path):
        if line.startswith(("NumNodes", "NumTerminals")):
            continue
        parts = line.split()
        try:
            name, w, h = parts[0], float(parts[1]), float(parts[2])
        except (IndexError, ValueError):
            raise _parse_error(
                path, lineno,
                f"malformed node record {line!r} (want: name width height)",
            ) from None
        sizes[name] = (w, h)
        if "terminal" in parts[3:]:
            fixed.add(name)
    return sizes, fixed


def _read_pl(
    path: Path, sizes: Dict[str, Tuple[float, float]]
) -> Tuple[Dict[str, Tuple[float, float]], set]:
    positions: Dict[str, Tuple[float, float]] = {}
    fixed = set()
    for lineno, line in _data_lines(path):
        parts = line.replace(":", " ").split()
        if len(parts) < 3:
            continue
        try:
            name, xlo, ylo = parts[0], float(parts[1]), float(parts[2])
        except ValueError:
            raise _parse_error(
                path, lineno,
                f"malformed placement record {line!r} (want: name x y ...)",
            ) from None
        if name not in sizes:
            raise _parse_error(
                path, lineno, f"placement references unknown node {name!r}"
            )
        w, h = sizes[name]
        positions[name] = (xlo + w / 2.0, ylo + h / 2.0)
        if "/FIXED" in line:
            fixed.add(name)
    return positions, fixed


def _read_nets(path: Path, builder: NetlistBuilder) -> None:
    lines = _data_lines(path)
    i = 0
    net_counter = 0
    while i < len(lines):
        head_lineno, line = lines[i]
        i += 1
        if not line.startswith("NetDegree"):
            continue
        head = line.replace(":", " ").split()
        try:
            degree = int(head[1])
        except (IndexError, ValueError):
            raise _parse_error(
                path, head_lineno, f"malformed net header {line!r}"
            ) from None
        name = head[2] if len(head) > 2 else f"net{net_counter}"
        net_counter += 1
        pins = []
        for _ in range(degree):
            if i >= len(lines) or lines[i][1].startswith("NetDegree"):
                raise _parse_error(
                    path, head_lineno,
                    f"net {name!r} declares {degree} pins but only "
                    f"{len(pins)} follow",
                )
            pin_lineno, pin_line = lines[i]
            parts = pin_line.replace(":", " ").split()
            i += 1
            node = parts[0]
            direction = "output" if len(parts) > 1 and parts[1].upper() == "O" else "input"
            try:
                dx = float(parts[2]) if len(parts) > 2 else 0.0
                dy = float(parts[3]) if len(parts) > 3 else 0.0
            except ValueError:
                raise _parse_error(
                    path, pin_lineno,
                    f"malformed pin offset in {pin_line!r}",
                ) from None
            pins.append((node, direction, dx, dy))
        # Bookshelf nets may list several outputs (e.g. bidirectional pads);
        # keep the first as driver, demote the rest to inputs.
        seen_output = False
        cleaned = []
        for node, direction, dx, dy in pins:
            if direction == "output":
                if seen_output:
                    direction = "input"
                seen_output = True
            cleaned.append((node, direction, dx, dy))
        if len(cleaned) >= 1:
            try:
                builder.add_net(name, cleaned)
            except (KeyError, ValueError) as exc:  # unknown node, bad offset
                raise _parse_error(path, head_lineno, exc.args[0]) from None


def _read_scl(path: Path) -> PlacementRegion:
    lines = _data_lines(path)
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
                        fields["y"] = float(parts[1])
                    elif parts[0] == "Height":
                        fields["h"] = float(parts[1])
                    elif parts[0] == "SubrowOrigin":
                        fields["x"] = float(parts[1])
                        if "NumSites" in parts:
                            k = parts.index("NumSites")
                            fields["sites"] = float(parts[k + 1])
                    elif parts[0] == "Sitespacing":
                        fields["spacing"] = float(parts[1])
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

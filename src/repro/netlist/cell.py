"""Cells: the movable (and fixed) objects being placed.

The paper's key generic-placement claim is that standard cells, macro blocks
and pads are all handled by the *same* mechanism — a cell is just a rectangle
with connectivity, and a block is merely a big cell.  We therefore use a
single :class:`Cell` class with a :class:`CellKind` tag instead of separate
block/pad hierarchies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from ..geometry import Rect


class CellKind(enum.Enum):
    """What a cell physically is.  Placement treats all kinds uniformly."""

    STANDARD = "standard"  # row-height standard cell
    BLOCK = "block"  # macro block (floorplanning)
    PAD = "pad"  # I/O pad, normally fixed on the boundary


#: Cell kinds by storage code: a netlist keeps ``kinds`` as indices into
#: this tuple.
CELL_KINDS = tuple(CellKind)


def check_cell(
    name: str,
    width: float,
    height: float,
    fixed: bool,
    x: Optional[float],
    y: Optional[float],
    delay: float,
    input_cap: float,
    power: float,
) -> None:
    """Raise ``ValueError`` unless the values describe a placeable cell.

    Sizes must be finite and positive, a fixed cell's coordinates finite,
    and ``delay``, ``input_cap`` and ``power`` finite: NaN compares False
    with everything, so a ``width <= 0`` test alone lets it through.
    """
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"cell {name!r} has non-finite size {width} x {height}")
    if width <= 0 or height <= 0:
        raise ValueError(
            f"cell {name!r} has zero or negative size {width} x {height}"
        )
    if fixed:
        if x is None or y is None:
            raise ValueError(f"fixed cell {name!r} needs coordinates")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(
                f"fixed cell {name!r} has non-finite position ({x}, {y})"
            )
    for field_name, value in (
        ("delay", delay), ("input_cap", input_cap), ("power", power)
    ):
        if not math.isfinite(value):
            raise ValueError(f"cell {name!r} has non-finite {field_name} {value}")
    if delay < 0:
        raise ValueError(f"cell {name!r} has negative delay")


@dataclass
class Cell:
    """One placeable (or fixed) rectangle.

    A cell built by its constructor is a plain record, for example one to
    add through :mod:`repro.eco`.  A cell read from a netlist
    (``netlist.cells[i]``) is a read-only view built on access: the netlist
    stores its cells as arrays, and writing to a view raises
    ``AttributeError``.  Derive a modified design with
    :class:`~repro.netlist.builder.NetlistBuilder` or :mod:`repro.eco`.

    Attributes
    ----------
    name:
        Unique identifier within the netlist.
    width, height:
        Physical size in microns.
    kind:
        Standard cell, block or pad.
    fixed:
        Fixed cells keep their ``(x, y)`` center forever; they contribute to
        the quadratic system only through the constant vector ``d``.
    x, y:
        Center coordinates.  Mandatory for fixed cells; for movable cells
        they are an optional initial position hint.
    delay:
        Intrinsic cell delay in nanoseconds (input pin to output pin).
    input_cap:
        Capacitance of each input pin in farads (Elmore sink load).
    power:
        Dissipated power in watts; consumed by the thermal substrate.
    is_register:
        Registers start and end timing paths.
    index:
        Position in the owning :class:`~repro.netlist.netlist.Netlist`;
        ``-1`` for a cell that belongs to none.
    """

    name: str
    width: float
    height: float
    kind: CellKind = CellKind.STANDARD
    fixed: bool = False
    x: Optional[float] = None
    y: Optional[float] = None
    delay: float = 0.0
    input_cap: float = 5.0e-13
    power: float = 0.0
    is_register: bool = False
    index: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        self.check()

    @classmethod
    def _view(cls, index: int, **values) -> "Cell":
        """A read-only cell over values a netlist or builder holds."""
        view = object.__new__(cls)
        view.__dict__.update(values, index=index, _read_only=True)
        return view

    def __setattr__(self, name: str, value) -> None:
        if "_read_only" in self.__dict__:
            raise AttributeError(
                f"cell {self.name!r} is a read-only view of its netlist; "
                "derive a modified design with NetlistBuilder or repro.eco"
            )
        object.__setattr__(self, name, value)

    def check(self) -> None:
        """Raise ``ValueError`` unless the fields describe a placeable cell
        (see :func:`check_cell`).

        Construction runs it, and so does every
        :class:`~repro.netlist.netlist.Netlist` built from cells, which
        catches a field changed after construction.
        """
        check_cell(
            self.name, self.width, self.height, self.fixed, self.x, self.y,
            self.delay, self.input_cap, self.power,
        )

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def is_movable(self) -> bool:
        return not self.fixed

    def rect_at(self, cx: float, cy: float) -> Rect:
        """Footprint rectangle when centered at ``(cx, cy)``."""
        return Rect.from_center(cx, cy, self.width, self.height)

    def fixed_rect(self) -> Rect:
        """Footprint of a fixed cell at its pinned position."""
        if not self.fixed:
            raise ValueError(f"cell {self.name!r} is movable")
        assert self.x is not None and self.y is not None
        return self.rect_at(self.x, self.y)

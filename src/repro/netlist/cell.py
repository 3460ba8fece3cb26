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


@dataclass
class Cell:
    """One placeable (or fixed) rectangle.

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
        assigned by the builder, ``-1`` until then.
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

    def check(self) -> None:
        """Raise ``ValueError`` unless the fields describe a placeable cell.

        Construction runs it, and so does every
        :class:`~repro.netlist.netlist.Netlist` for each of its cells, which
        catches a field changed after construction.  Sizes must be finite
        and positive, a fixed cell's coordinates finite, and ``delay``,
        ``input_cap`` and ``power`` finite: NaN compares False with
        everything, so a ``width <= 0`` test alone lets it through.
        """
        name = self.name
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValueError(
                f"cell {name!r} has non-finite size {self.width} x {self.height}"
            )
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"cell {name!r} has zero or negative size "
                f"{self.width} x {self.height}"
            )
        if self.fixed:
            if self.x is None or self.y is None:
                raise ValueError(f"fixed cell {name!r} needs coordinates")
            if not (math.isfinite(self.x) and math.isfinite(self.y)):
                raise ValueError(
                    f"fixed cell {name!r} has non-finite position "
                    f"({self.x}, {self.y})"
                )
        for field_name in ("delay", "input_cap", "power"):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                raise ValueError(f"cell {name!r} has non-finite {field_name} {value}")
        if self.delay < 0:
            raise ValueError(f"cell {name!r} has negative delay")

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

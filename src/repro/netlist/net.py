"""Nets and pins.

A net is a hyperedge over cell pins.  The quadratic engine expands each net
into a clique (Section 2.1 of the paper: a ``k``-pin net becomes
``k(k-1)/2`` edges of weight ``1/k``) or, for very large nets, into a star
with an auxiliary movable vertex — see :mod:`repro.core.quadratic`.

Pins carry offsets from the owning cell's center so pin-accurate wire-length
evaluation is possible; the paper's model connects cell centers, which is the
default offset of ``(0, 0)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class Pin:
    """A connection point of a net on a cell.

    ``dx``/``dy`` are offsets of the pin from the cell center, in microns.
    """

    cell: int  # index of the cell in the netlist
    direction: PinDirection = PinDirection.INPUT
    dx: float = 0.0
    dy: float = 0.0


@dataclass
class Net:
    """One hyperedge.

    Attributes
    ----------
    name:
        Unique identifier.
    pins:
        The connected pins.  By convention a net has at most one OUTPUT pin,
        which drives the net (needed for timing analysis); purely structural
        netlists may omit directions entirely.
    weight:
        Static user weight; placement-time timing weights are maintained
        *outside* the netlist (in :class:`~repro.timing.weights.NetWeights`)
        so a netlist is immutable during a placement run.
    index:
        Position in the owning netlist, assigned by the builder.
    """

    name: str
    pins: List[Pin]
    weight: float = 1.0
    index: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if len(self.pins) < 1:
            raise ValueError(f"net {self.name!r} has no pins")
        # NaN compares False with everything: "weight <= 0" lets it pass.
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(
                f"net {self.name!r} needs a finite, positive weight, "
                f"got {self.weight!r}"
            )
        if len(self.driver_pins()) > 1:
            raise ValueError(f"net {self.name!r} has multiple drivers")

    @classmethod
    def trusted(
        cls, name: str, pins: List[Pin], weight: float = 1.0
    ) -> "Net":
        """Construct without ``__post_init__`` validation.

        For bulk construction (coarsening, generators) where the caller
        guarantees the invariants — at least one pin, positive weight, a
        single driver.  The per-net ``driver_pins`` scan is the dominant
        cost of building a 100k-net netlist.
        """
        net = object.__new__(cls)
        net.name = name
        net.pins = pins
        net.weight = weight
        net.index = -1
        return net

    @property
    def degree(self) -> int:
        return len(self.pins)

    def cells(self) -> List[int]:
        """Indices of connected cells (with multiplicity)."""
        return [pin.cell for pin in self.pins]

    def driver_pins(self) -> List[Pin]:
        return [p for p in self.pins if p.direction is PinDirection.OUTPUT]

    @property
    def driver(self) -> Optional[Pin]:
        """The driving (output) pin, or ``None`` for undirected nets."""
        drivers = self.driver_pins()
        return drivers[0] if drivers else None

    @property
    def sinks(self) -> Sequence[Pin]:
        return [p for p in self.pins if p.direction is PinDirection.INPUT]

"""ECO / incremental placement (Section 5).

"Our method starts from the given placement and introduces additional
forces according to the density deviations arising from netlist changes":

* :class:`NetlistDelta` describes an engineering change order — cells added,
  removed or resized (gate sizing), nets added or removed — and applies it
  to an existing netlist, producing a new immutable netlist.
* :func:`eco_place` transfers the old placement onto the changed netlist
  (new cells start at the centroid of their connected, already-placed
  neighbors), then reruns placement transformations from that state.  The
  force formulation reacts only to the *density deviations* the change
  introduced, so an incremental change yields an incremental placement —
  the property measured by the ECO stability experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import KraftwerkPlacer, PlacementResult, PlacerConfig
from ..geometry import PlacementRegion
from ..netlist import (
    Cell,
    Netlist,
    NetlistBuilder,
    Placement,
)


@dataclass
class NetlistDelta:
    """An engineering change order against an existing netlist.

    ``add_cells`` holds fully-constructed (movable) :class:`Cell` templates;
    ``add_nets`` holds ``(name, pin_specs, weight)`` with the pin-spec syntax
    of :meth:`NetlistBuilder.add_net`.  ``resize_cells`` maps cell name to a
    new width (gate sizing).
    """

    add_cells: List[Cell] = field(default_factory=list)
    remove_cells: List[str] = field(default_factory=list)
    resize_cells: Dict[str, float] = field(default_factory=dict)
    # Arbitrary attribute overrides per cell (width/delay/input_cap/power),
    # e.g. from gate sizing: {"c12": {"width": 80.0, "delay": 0.2}}.
    modify_cells: Dict[str, Dict[str, float]] = field(default_factory=dict)
    add_nets: List[Tuple[str, Sequence, float]] = field(default_factory=list)
    remove_nets: List[str] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (
            self.add_cells
            or self.remove_cells
            or self.resize_cells
            or self.modify_cells
            or self.add_nets
            or self.remove_nets
        )

    def apply(self, netlist: Netlist) -> Netlist:
        """The changed netlist (the input is left untouched)."""
        removed = set(self.remove_cells)
        dead_nets = set(self.remove_nets)
        builder = NetlistBuilder(netlist.name + "+eco")
        for cell in netlist.cells:
            if cell.name in removed:
                continue
            overrides = dict(self.modify_cells.get(cell.name, {}))
            if cell.name in self.resize_cells:
                overrides.setdefault("width", self.resize_cells[cell.name])
            unknown = set(overrides) - {"width", "delay", "input_cap", "power"}
            if unknown:
                raise ValueError(
                    f"unsupported cell overrides for {cell.name!r}: {sorted(unknown)}"
                )
            width = overrides.get("width", cell.width)
            delay = overrides.get("delay", cell.delay)
            input_cap = overrides.get("input_cap", cell.input_cap)
            power = overrides.get("power", cell.power)
            if cell.fixed:
                builder.add_fixed_cell(
                    cell.name, width, cell.height, x=cell.x, y=cell.y,
                    kind=cell.kind, delay=delay, input_cap=input_cap,
                    power=power, is_register=cell.is_register,
                )
            else:
                builder.add_cell(
                    cell.name, width, cell.height, kind=cell.kind,
                    delay=delay, input_cap=input_cap,
                    power=power, is_register=cell.is_register,
                )
        for cell in self.add_cells:
            if cell.fixed:
                raise ValueError("ECO additions must be movable cells")
            builder.add_cell(
                cell.name, cell.width, cell.height, kind=cell.kind,
                delay=cell.delay, input_cap=cell.input_cap,
                power=cell.power, is_register=cell.is_register,
            )
        for net in netlist.nets:
            if net.name in dead_nets:
                continue
            names = netlist.cell_names
            pins = [
                (names[p.cell], p.direction.value, p.dx, p.dy)
                for p in net.pins
                if names[p.cell] not in removed
            ]
            if len(pins) >= 2:
                builder.add_net(net.name, pins, weight=net.weight)
        for name, pins, weight in self.add_nets:
            builder.add_net(name, pins, weight=weight)
        return builder.build()


@dataclass
class EcoResult:
    """Outcome of an incremental re-placement."""

    placement: Placement
    result: PlacementResult
    common_cells: List[str]
    mean_disturbance: float  # mean displacement of surviving cells (um)
    max_disturbance: float

    @property
    def hpwl_m(self) -> float:
        from ..evaluation.wirelength import hpwl_meters

        return hpwl_meters(self.placement)


def transfer_placement(
    old_netlist: Netlist,
    old_placement: Placement,
    new_netlist: Netlist,
    region: PlacementRegion,
) -> Placement:
    """Map an old placement onto a changed netlist.

    Surviving cells keep their positions; new cells start at the centroid of
    their already-placed neighbors (or the region center if isolated).
    """
    old_index = {name: i for i, name in enumerate(old_netlist.cell_names)}
    placement = Placement.at_center(new_netlist, region)
    known = np.zeros(new_netlist.num_cells, dtype=bool)
    for cell in new_netlist.cells:
        old_i = old_index.get(cell.name)
        if old_i is not None and not cell.fixed:
            placement.x[cell.index] = old_placement.x[old_i]
            placement.y[cell.index] = old_placement.y[old_i]
            known[cell.index] = True
        elif cell.fixed:
            known[cell.index] = True
    # New cells: centroid of known neighbors, one sweep.
    for cell in new_netlist.cells:
        if known[cell.index]:
            continue
        xs: List[float] = []
        ys: List[float] = []
        for j in new_netlist.nets_of_cell(cell.index):
            for pin in new_netlist.nets[j].pins:
                if pin.cell != cell.index and known[pin.cell]:
                    xs.append(float(placement.x[pin.cell]))
                    ys.append(float(placement.y[pin.cell]))
        if xs:
            placement.x[cell.index] = float(np.mean(xs))
            placement.y[cell.index] = float(np.mean(ys))
    placement.reset_fixed()
    return placement


def eco_place(
    old_netlist: Netlist,
    old_placement: Placement,
    delta: NetlistDelta,
    region: PlacementRegion,
    config: Optional[PlacerConfig] = None,
    max_iterations: Optional[int] = 30,
) -> EcoResult:
    """Apply a delta and re-place incrementally from the old placement.

    ``max_iterations`` defaults to a small budget: an incremental change
    needs few transformations, and an unbounded run would keep nudging the
    placement (and the disturbance metric) long after the change has been
    absorbed.
    """
    new_netlist = delta.apply(old_netlist)
    initial = transfer_placement(old_netlist, old_placement, new_netlist, region)
    cfg = config or PlacerConfig()
    # ECO runs should be allowed to stop immediately if nothing changed.
    cfg = PlacerConfig(**{**cfg.__dict__, "min_iterations": 1})
    placer = KraftwerkPlacer(new_netlist, region, cfg)
    result = placer.place(initial=initial, max_iterations=max_iterations)

    old_index = {name: i for i, name in enumerate(old_netlist.cell_names)}
    common: List[str] = []
    moved: List[float] = []
    for cell in new_netlist.cells:
        old_i = old_index.get(cell.name)
        if old_i is None or cell.fixed:
            continue
        common.append(cell.name)
        moved.append(
            float(
                np.hypot(
                    result.placement.x[cell.index] - old_placement.x[old_i],
                    result.placement.y[cell.index] - old_placement.y[old_i],
                )
            )
        )
    return EcoResult(
        placement=result.placement,
        result=result,
        common_cells=common,
        mean_disturbance=float(np.mean(moved)) if moved else 0.0,
        max_disturbance=float(np.max(moved)) if moved else 0.0,
    )

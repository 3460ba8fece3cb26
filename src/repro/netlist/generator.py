"""Synthetic benchmark circuit generator.

The paper evaluates on the 1998 MCNC standard-cell suite (``fract`` …
``avq.large``), which is not redistributable.  We substitute deterministic
synthetic circuits whose aggregate structure matches the published
parameters: cell count, net count, row count, pad count and a realistic net
degree distribution.  Placement algorithms are driven almost entirely by such
aggregate structure, so the *relative* behaviour of placers — which one wins,
by roughly what factor — carries over even though absolute wire lengths
differ from the original circuits.

Design of the generator
-----------------------
Cells are created in an index order that encodes logical proximity: each
cell's output net selects its sinks with an index offset drawn from a
two-sided geometric distribution (``locality`` controls the scale), plus a
small probability of a uniformly random "global" sink.  This reproduces the
Rent's-rule-like clustering of real circuits: most connectivity is local,
a tail is chip-wide.  Net degrees therefore follow the characteristic
1998-era distribution (mostly 2–5 pins, a few large fan-out nets).

Timing structure: cells are layered into a DAG (sinks always have a higher
"level" than their driver within a register-to-register stage), a fraction of
cells are registers, and primary I/O connects through fixed boundary pads, so
the circuits support longest-path timing analysis out of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..geometry import PlacementRegion
from .builder import NetlistBuilder
from .cell import CellKind
from .netlist import Netlist

# 1998-era physical scale (the MCNC suite was laid out in multi-micron
# technologies): ~100 um row pitch puts the suite's die sizes at a few mm
# and critical nets at ~1 mm, where the quadratic term of the Elmore wire
# delay reaches the nanoseconds the paper's Table 3 reports.
ROW_HEIGHT = 100.0  # microns
SITE_WIDTH = 5.0

#: Canonical bench-size circuits.  All sizes share the generator's
#: Rent's-rule connectivity profile (geometric-locality sinks plus a
#: global tail) and keep the same cells-per-row² density, so the density
#: landscape the placer sees is scale-invariant: ``num_rows`` grows as
#: ``sqrt(num_cells)``.  ``tiny``/``small``/``medium`` are the regression
#: trio the committed bench report always carries; ``large`` (100k cells)
#: and ``huge`` (1M cells) exist to exercise the multilevel V-cycle and
#: are recorded on demand (``repro bench --sizes large``).
BENCH_SIZES = {
    "tiny": {"num_cells": 60, "num_rows": 4},
    "small": {"num_cells": 300, "num_rows": 8},
    "medium": {"num_cells": 1200, "num_rows": 16},
    "large": {"num_cells": 100_000, "num_rows": 144},
    "huge": {"num_cells": 1_000_000, "num_rows": 460},
}


def bench_spec(size: str, seed: int = 0) -> "GeneratorSpec":
    """The :class:`GeneratorSpec` for a named bench size.

    Raises ``ValueError`` for unknown sizes so callers surface the full
    menu instead of a bare ``KeyError``.
    """
    if size not in BENCH_SIZES:
        raise ValueError(
            f"unknown bench size {size!r}; choose from {sorted(BENCH_SIZES)}"
        )
    return GeneratorSpec(name=size, seed=seed, **BENCH_SIZES[size])


@dataclass
class GeneratorSpec:
    """Parameters of a synthetic circuit.

    The defaults produce a medium-size standard-cell circuit; the benchmark
    suite (:mod:`repro.netlist.benchmarks`) overrides them per circuit.
    """

    name: str
    num_cells: int
    num_nets: Optional[int] = None  # default: one net per non-terminal cell
    num_rows: int = 16
    num_pads: Optional[int] = None  # default: ~4 sqrt(num_cells)
    utilization: float = 0.8  # cell area / core area
    mean_fanout: float = 2.2
    locality: float = 0.03  # geometric scale as a fraction of num_cells
    global_sink_prob: float = 0.05
    register_fraction: float = 0.2
    max_comb_depth: int = 24  # deeper cells are converted to registers
    big_net_prob: float = 0.002  # clock/reset-like high-fanout nets
    big_net_fanout: int = 80
    min_cell_width: float = 20.0
    max_cell_width: float = 75.0
    num_blocks: int = 0  # movable macro blocks (mixed-size designs)
    block_area_fraction: float = 0.0  # share of movable area taken by blocks
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_cells < 2:
            raise ValueError("need at least 2 cells")
        if not 0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")
        if self.num_blocks and not 0 < self.block_area_fraction < 1:
            raise ValueError("blocks need a block_area_fraction in (0, 1)")


@dataclass
class GeneratedCircuit:
    """A synthetic circuit: netlist plus the region it targets."""

    netlist: Netlist
    region: PlacementRegion
    spec: GeneratorSpec


def generate_circuit(spec: GeneratorSpec) -> GeneratedCircuit:
    """Deterministically generate a circuit from its spec."""
    rng = np.random.default_rng(_seed_from(spec))
    builder = NetlistBuilder(spec.name)

    widths = _cell_widths(spec, rng)
    region = _size_region(spec, widths)
    block_names = _add_blocks(builder, spec, rng, region)
    cell_names = _add_cells(builder, spec, rng, widths)
    pad_names = _add_pads(builder, spec, rng, region)
    _add_nets(builder, spec, rng, cell_names, pad_names, block_names)
    _bound_combinational_depth(builder, spec.max_comb_depth)

    return GeneratedCircuit(netlist=builder.build(), region=region, spec=spec)


# ----------------------------------------------------------------------
# Pieces
# ----------------------------------------------------------------------
def _seed_from(spec: GeneratorSpec) -> int:
    """Stable seed derived from circuit name and explicit seed."""
    h = 2166136261
    for ch in spec.name:
        h = (h ^ ord(ch)) * 16777619 % (2**32)
    return (h + spec.seed) % (2**32)


def _cell_widths(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    """Log-normal-ish widths snapped to the site grid."""
    lo, hi = spec.min_cell_width, spec.max_cell_width
    raw = rng.lognormal(mean=math.log((lo + hi) / 3.0), sigma=0.35, size=spec.num_cells)
    widths = np.clip(raw, lo, hi)
    return np.maximum(SITE_WIDTH, np.round(widths / SITE_WIDTH) * SITE_WIDTH)


def _size_region(spec: GeneratorSpec, widths: np.ndarray) -> PlacementRegion:
    """Region sized from movable area, target utilization and row count."""
    cell_area = float(widths.sum() * ROW_HEIGHT)
    block_area = (
        cell_area * spec.block_area_fraction / (1.0 - spec.block_area_fraction)
        if spec.num_blocks
        else 0.0
    )
    core_area = (cell_area + block_area) / spec.utilization
    height = spec.num_rows * ROW_HEIGHT
    width = core_area / height
    return PlacementRegion.standard_cell(width=width, height=height, row_height=ROW_HEIGHT)


def _add_blocks(
    builder: NetlistBuilder,
    spec: GeneratorSpec,
    rng: np.random.Generator,
    region: PlacementRegion,
) -> List[str]:
    if not spec.num_blocks:
        return []
    cell_area = region.area * spec.utilization
    block_total = cell_area * spec.block_area_fraction
    shares = rng.dirichlet(np.ones(spec.num_blocks)) * block_total
    names = []
    for i, area in enumerate(shares):
        aspect = rng.uniform(0.6, 1.7)
        w = math.sqrt(area * aspect)
        h = area / w
        # Snap block height to a whole number of rows so legalization can
        # carve rows around it.
        h = max(ROW_HEIGHT, round(h / ROW_HEIGHT) * ROW_HEIGHT)
        w = max(ROW_HEIGHT, area / h)
        name = f"blk{i}"
        builder.add_block(
            name, w, h, delay=float(rng.uniform(0.3, 1.0)), power=float(area * 1e-6)
        )
        names.append(name)
    return names


def _add_cells(
    builder: NetlistBuilder,
    spec: GeneratorSpec,
    rng: np.random.Generator,
    widths: np.ndarray,
) -> List[str]:
    register_mask = rng.random(spec.num_cells) < spec.register_fraction
    delays = rng.uniform(0.1, 0.5, size=spec.num_cells)
    names = []
    for i in range(spec.num_cells):
        name = f"c{i}"
        builder.add_cell(
            name,
            width=float(widths[i]),
            height=ROW_HEIGHT,
            delay=float(delays[i]),
            power=float(widths[i] * ROW_HEIGHT * 1e-6 * rng.uniform(0.5, 2.0)),
            is_register=bool(register_mask[i]),
        )
        names.append(name)
    return names


def _add_pads(
    builder: NetlistBuilder,
    spec: GeneratorSpec,
    rng: np.random.Generator,
    region: PlacementRegion,
) -> List[str]:
    num_pads = spec.num_pads
    if num_pads is None:
        num_pads = max(4, int(4 * math.sqrt(spec.num_cells)))
    b = region.bounds
    perimeter = 2.0 * (b.width + b.height)
    names = []
    for i in range(num_pads):
        t = (i + 0.5) / num_pads * perimeter
        x, y = _point_on_boundary(b.xlo, b.ylo, b.width, b.height, t)
        name = f"pad{i}"
        builder.add_fixed_cell(name, SITE_WIDTH, SITE_WIDTH, x=x, y=y, kind=CellKind.PAD)
        names.append(name)
    return names


def _point_on_boundary(
    xlo: float, ylo: float, w: float, h: float, t: float
) -> Tuple[float, float]:
    """Point at arclength *t* along the rectangle boundary (counterclockwise)."""
    if t < w:
        return (xlo + t, ylo)
    t -= w
    if t < h:
        return (xlo + w, ylo + t)
    t -= h
    if t < w:
        return (xlo + w - t, ylo + h)
    t -= w
    return (xlo, ylo + h - t)


def _add_nets(
    builder: NetlistBuilder,
    spec: GeneratorSpec,
    rng: np.random.Generator,
    cell_names: List[str],
    pad_names: List[str],
    block_names: List[str],
) -> None:
    n = len(cell_names)
    drivers = list(range(n))
    target_nets = spec.num_nets if spec.num_nets is not None else n
    scale = max(2.0, spec.locality * n)
    net_id = 0

    # Input pads drive a few nets into the first cells.
    num_input_pads = max(1, len(pad_names) // 2)
    for k in range(num_input_pads):
        pad = pad_names[k]
        sinks = _pick_sinks(rng, center=0, n=n, count=1 + int(rng.integers(0, 3)), scale=scale)
        pins = [(pad, "output")] + [(cell_names[s], "input") for s in sinks]
        builder.add_net(f"n{net_id}", pins)
        net_id += 1

    # Each cell drives one net (classic one-output-per-gate structure).
    for i in drivers:
        if net_id >= target_nets:
            break
        if rng.random() < spec.big_net_prob and n > spec.big_net_fanout:
            count = int(rng.integers(spec.big_net_fanout // 2, spec.big_net_fanout))
            sinks = _pick_sinks(rng, center=i, n=n, count=count, scale=n / 4.0)
        else:
            count = max(1, int(rng.poisson(spec.mean_fanout - 1.0)) + 1)
            sinks = _pick_sinks(
                rng,
                center=i,
                n=n,
                count=count,
                scale=scale,
                global_prob=spec.global_sink_prob,
            )
        sinks = [s for s in sinks if s != i]
        pins = [(cell_names[i], "output")]
        pins += [(cell_names[s], "input") for s in sinks]
        # Tail of the index range feeds output pads.
        if i >= n - len(pad_names) // 2 and pad_names:
            pad = pad_names[num_input_pads + (i % max(1, len(pad_names) - num_input_pads))]
            pins.append((pad, "input"))
        if len(pins) < 2:
            pins.append((cell_names[(i + 1) % n], "input"))
        builder.add_net(f"n{net_id}", pins)
        net_id += 1

    # Connect blocks into the netlist with a handful of block<->cell nets.
    for b_idx, block in enumerate(block_names):
        sinks = _pick_sinks(rng, center=rng.integers(0, n), n=n, count=6, scale=n / 8.0)
        pins = [(block, "output")] + [(cell_names[s], "input") for s in sinks]
        builder.add_net(f"bn{b_idx}", pins)
        feeders = _pick_sinks(rng, center=rng.integers(0, n), n=n, count=1, scale=n / 8.0)
        builder.add_net(
            f"bi{b_idx}", [(cell_names[feeders[0]], "output"), (block, "input")]
        )

    # Top up with extra local nets if the profile asks for more nets than cells.
    while net_id < target_nets:
        i = int(rng.integers(0, n))
        sinks = _pick_sinks(rng, center=i, n=n, count=1 + int(rng.integers(1, 3)), scale=scale)
        sinks = [s for s in sinks if s != i] or [(i + 1) % n]
        pins = [(cell_names[i], "output")] + [(cell_names[s], "input") for s in sinks]
        builder.add_net(f"n{net_id}", pins)
        net_id += 1


def _bound_combinational_depth(builder: NetlistBuilder, max_depth: int) -> None:
    """Convert cells deeper than *max_depth* levels into registers.

    Random netlists contain exponentially many paths, so for any register
    fraction some combinational path dodges every register and grows
    unrealistically deep.  Real designs are depth-bounded by construction;
    this pass enforces the same invariant.  Forward arcs (sink index above
    driver index — the generator's dominant direction) are relaxed in one
    pass; the rare backward arcs are ignored here and handled by the STA's
    cycle breaking.
    """
    registers = builder._cells["register_mask"]
    fixed = builder._cells["fixed_mask"]
    ptr, pin_cell, pin_dir = builder._net_ptr, builder._pin_cell, builder._pin_dir
    depth = [0] * builder.num_cells
    arcs = []
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        pins = range(lo, hi)
        driver = next((pin_cell[k] for k in pins if pin_dir[k]), None)
        if driver is None:
            continue
        arcs.extend(
            (driver, pin_cell[k]) for k in pins
            if not pin_dir[k] and pin_cell[k] > driver
        )
    arcs.sort()
    for src, dst in arcs:
        src_depth = 0 if (registers[src] or fixed[src]) else depth[src]
        if registers[dst] or fixed[dst]:
            continue
        depth[dst] = max(depth[dst], src_depth + 1)
        if depth[dst] > max_depth:
            builder.set_register(dst)
            depth[dst] = 0


def _pick_sinks(
    rng: np.random.Generator,
    center: int,
    n: int,
    count: int,
    scale: float,
    global_prob: float = 0.0,
) -> List[int]:
    """Distinct sink indices after *center*, clustered near it.

    Sinks are strictly *forward* (higher index), so the signal flow is
    levelized like real combinational logic: without this, zig-zag paths
    through occasional backward arcs would grow unrealistically deep and
    defeat the generator's depth bound.
    """
    sinks: List[int] = []
    seen = {int(center)}
    attempts = 0
    while len(sinks) < count and attempts < count * 8:
        attempts += 1
        if global_prob and rng.random() < global_prob and center + 1 < n:
            j = int(rng.integers(center + 1, n))
        else:
            j = int(center) + int(rng.geometric(p=min(0.9, 1.0 / scale)))
        if 0 <= j < n and j not in seen:
            seen.add(j)
            sinks.append(j)
    if not sinks:
        # Last cells have no forward candidates; fall back to a backward
        # neighbour (a handful of such arcs is harmless).
        sinks.append(max(0, int(center) - 1))
    return sinks

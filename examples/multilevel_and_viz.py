"""Multilevel placement + visualization outputs.

Places a mid-size circuit both flat and through the two-level clustering
flow, compares them, and writes SVG renderings (placement, density map,
convergence curves) to ./out/.

Run:  python examples/multilevel_and_viz.py [circuit] [scale]
"""

import sys
import time
from pathlib import Path

from repro import KraftwerkPlacer, make_circuit
from repro.core import MultilevelPlacer
from repro.evaluation import compare_placements, occupancy_map, summarize_placement
from repro.geometry import Grid
from repro.viz import ascii_placement, curve_svg, heatmap_svg, placement_svg, sparkline


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "biomed"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.3
    circuit = make_circuit(name, scale=scale)
    netlist, region = circuit.netlist, circuit.region
    out = Path("out")
    out.mkdir(exist_ok=True)

    # Per-iteration HPWL is a diagnostic the placer computes only when
    # something reads it: these iteration hooks collect the convergence
    # curves (the multilevel hook sees the finest-level refinement).
    flat_curve, refine_curve = [], []
    t0 = time.time()
    flat = KraftwerkPlacer(netlist, region).place(
        iteration_hook=lambda stats, _: flat_curve.append(stats.hpwl_m)
    )
    t_flat = time.time() - t0
    t0 = time.time()
    multi = MultilevelPlacer(netlist, region, levels=2).place(
        iteration_hook=lambda stats, _: refine_curve.append(stats.hpwl_m)
    )
    t_multi = time.time() - t0

    print(f"flat       : {flat.hpwl_m:.4f} m in {t_flat:.1f}s "
          f"({flat.iterations} transformations)")
    print(f"multilevel : {multi.hpwl_m:.4f} m in {t_multi:.1f}s "
          f"({multi.levels} coarsening levels)")
    diff = compare_placements(flat.placement, multi.placement)
    print(f"the two placements differ by {diff.mean_displacement:.0f} um on "
          f"average ({diff.hpwl_delta_percent:+.1f}% wire length)")

    summary = summarize_placement(multi.placement, region, with_timing=True)
    print(f"multilevel summary: mst {summary.mst_m:.4f} m, "
          f"peak density {summary.max_density:.2f}, "
          f"longest path {summary.max_delay_ns:.2f} ns")

    # Convergence sparkline + SVG artifacts.
    print(f"flat hpwl per iteration: {sparkline(flat_curve)}")

    placement_svg(multi.placement, region, out / f"{name}_placement.svg")
    grid = Grid.square_bins(region.bounds, max(region.width, region.height) / 64)
    density = occupancy_map(multi.placement, region, grid=grid) / grid.bin_area
    heatmap_svg(grid, density, out / f"{name}_density.svg")
    curve_svg(
        [("flat hpwl [m]", flat_curve),
         ("refine hpwl [m]", refine_curve)],
        out / f"{name}_convergence.svg",
    )
    print(f"wrote {out}/{name}_placement.svg, _density.svg, _convergence.svg")
    print()
    print(ascii_placement(multi.placement, region, cols=64, rows=16))


if __name__ == "__main__":
    main()

"""Congestion- and heat-driven placement (Section 5).

Both applications reuse the same mechanism: an extra map (routing overflow
resp. power excess) is folded into the supply/demand density, and the
Poisson forces push cells away from the pressured regions.

Run:  python examples/congestion_and_heat.py [circuit] [scale]
"""

import sys

from repro import (
    CongestionDrivenPlacer,
    HeatDrivenPlacer,
    KraftwerkPlacer,
    make_circuit,
)
from repro.eco import NetlistDelta


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "primary1"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.3
    circuit = make_circuit(name, scale=scale)
    netlist, region = circuit.netlist, circuit.region

    base = KraftwerkPlacer(netlist, region).place()

    # --- congestion ----------------------------------------------------
    driven = CongestionDrivenPlacer(
        netlist, region, capacity_layers=0.5, congestion_weight=2.0
    )
    congested = driven.place()
    base_est = driven.router.estimate(base.placement)
    print("congestion-driven placement (tight routing capacity):")
    print(f"  plain : overflow {base_est.total_overflow:9.0f}, "
          f"max utilization {base_est.max_utilization:.2f}, "
          f"{base.hpwl_m:.4f} m")
    print(f"  driven: overflow {congested.total_overflow:9.0f}, "
          f"max utilization {congested.estimate.max_utilization:.2f}, "
          f"{congested.result.hpwl_m:.4f} m")

    # --- heat ----------------------------------------------------------
    # Make a contiguous module run hot (40x power), then spread it.
    # A netlist is immutable: derive the hot design as an ECO change.
    hot = netlist.movable_indices[10:50]
    netlist = NetlistDelta(modify_cells={
        netlist.cell_names[i]: {"power": float(netlist.powers[i]) * 40.0}
        for i in hot
    }).apply(netlist)
    heat = HeatDrivenPlacer(netlist, region, heat_weight=2.0)
    cooled = heat.place()
    base_hot = KraftwerkPlacer(netlist, region).place()
    base_thermal = heat.model.solve(base_hot.placement)
    print("heat-driven placement (one 40-cell module at 40x power):")
    print(f"  plain : peak T {base_thermal.peak_temperature:8.1f}, "
          f"{base_hot.hpwl_m:.4f} m")
    print(f"  driven: peak T {cooled.peak_temperature:8.1f}, "
          f"{cooled.result.hpwl_m:.4f} m")


if __name__ == "__main__":
    main()

"""Elmore net-delay model (Section 5, "Timing Optimization").

The paper uses "the Elmore delay model based on the half perimeter of the
enclosing rectangle as net delay", with the Section 6.2 parameters of
242 pF/m capacitance and 25.5 kΩ/m resistance per unit length.  For a net of
half-perimeter length ``L`` driving total sink capacitance ``C_sink``:

    t_net = r' L (c' L / 2 + C_sink)

which is the Elmore delay of a single lumped RC wire of length ``L``.  All
lengths are in microns internally and converted; delays are returned in
nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..evaluation.wirelength import net_hpwl
from ..netlist import Netlist, Placement

# Section 6.2 parameters.
RESISTANCE_PER_METER = 25.5e3  # ohm / m
CAPACITANCE_PER_METER = 242.0e-12  # F / m

_MICRONS = 1.0e-6
_SECONDS_TO_NS = 1.0e9


@dataclass(frozen=True)
class ElmoreModel:
    """Wire RC parameters for net-delay evaluation."""

    resistance_per_meter: float = RESISTANCE_PER_METER
    capacitance_per_meter: float = CAPACITANCE_PER_METER

    def net_delays_ns(
        self, placement: Placement, sink_caps: np.ndarray
    ) -> np.ndarray:
        """Per-net Elmore delay in ns for the current placement.

        ``sink_caps`` is the per-net total sink input capacitance in farads
        (see :func:`net_sink_capacitance`).
        """
        lengths_m = net_hpwl(placement) * _MICRONS
        r = self.resistance_per_meter
        c = self.capacitance_per_meter
        delays_s = r * lengths_m * (c * lengths_m / 2.0 + sink_caps)
        return delays_s * _SECONDS_TO_NS

    def delay_ns_for_length(self, length_um: float, sink_cap: float) -> float:
        """Delay of a single net given its HPWL in microns."""
        length_m = length_um * _MICRONS
        r = self.resistance_per_meter
        c = self.capacitance_per_meter
        return r * length_m * (c * length_m / 2.0 + sink_cap) * _SECONDS_TO_NS


def net_sink_capacitance(netlist: Netlist) -> np.ndarray:
    """Total input-pin capacitance per net (farads)."""
    nl = netlist
    sinks = nl.pin_dir == 0
    net_of_pin = np.repeat(np.arange(nl.num_nets), nl.net_degree)
    # bincount adds each net's sink capacitances in pin order, as a
    # per-net running sum would.
    return np.bincount(
        net_of_pin[sinks], weights=nl.input_caps[nl.pin_cell[sinks]],
        minlength=nl.num_nets,
    )

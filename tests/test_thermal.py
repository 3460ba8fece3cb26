"""Tests for the thermal model and heat-driven placement."""

import numpy as np
import pytest

from repro.eco import NetlistDelta

from repro import (
    HeatDrivenPlacer,
    KraftwerkPlacer,
    NetlistBuilder,
    Placement,
    PlacementRegion,
    ThermalModel,
)
from repro.thermal import power_map


@pytest.fixture()
def region():
    return PlacementRegion.standard_cell(320.0, 320.0, row_height=10.0)


def _heater(region, power=1.0, at=(160.0, 160.0)):
    b = NetlistBuilder("heat")
    b.add_cell("hot", 10.0, 10.0, power=power)
    b.add_cell("cold", 10.0, 10.0, power=0.0)
    b.add_net("n", [("hot", "output"), ("cold", "input")])
    nl = b.build()
    p = Placement(nl, np.array([at[0], 40.0]), np.array([at[1], 40.0]))
    return nl, p


class TestThermalModel:
    def test_power_map_conserves_power(self, region):
        nl, p = _heater(region, power=2.5)
        model = ThermalModel(region, bins=16)
        assert power_map(p, model.grid).sum() == pytest.approx(2.5)

    def test_peak_at_source(self, region):
        nl, p = _heater(region)
        model = ThermalModel(region, bins=16)
        result = model.solve(p)
        iy, ix = np.unravel_index(np.argmax(result.temperature), result.temperature.shape)
        # Source at the center of a 16x16 grid.
        assert abs(iy - 8) <= 1 and abs(ix - 8) <= 1

    def test_temperature_positive_and_decaying(self, region):
        nl, p = _heater(region)
        result = ThermalModel(region, bins=16).solve(p)
        t = result.temperature
        assert t.min() >= -1e-9
        assert t[8, 8] > t[8, 14] > 0.0  # decays toward the boundary

    def test_linearity_in_power(self, region):
        nl1, p1 = _heater(region, power=1.0)
        nl2, p2 = _heater(region, power=3.0)
        model = ThermalModel(region, bins=16)
        t1 = model.solve(p1).peak_temperature
        t2 = model.solve(p2).peak_temperature
        assert t2 == pytest.approx(3.0 * t1, rel=1e-9)

    def test_boundary_source_cooler_than_center(self, region):
        model = ThermalModel(region, bins=16)
        nl, p_center = _heater(region, at=(160.0, 160.0))
        nl2, p_edge = _heater(region, at=(10.0, 160.0))
        assert (
            model.solve(p_edge).peak_temperature
            < model.solve(p_center).peak_temperature
        )


class TestHeatDriven:
    def test_requires_power(self, region):
        b = NetlistBuilder("np")
        b.add_cell("a", 10.0, 10.0, power=0.0)
        b.add_cell("bb", 10.0, 10.0, power=0.0)
        b.add_net("n", ["a", "bb"])
        with pytest.raises(ValueError):
            HeatDrivenPlacer(b.build(), region)

    def test_reduces_hotspot_of_clustered_module(self, small_circuit):
        nl, region = small_circuit.netlist, small_circuit.region
        # A contiguous (hence tightly connected) block of cells runs hot,
        # derived as an ECO change: netlists are immutable.
        nl = NetlistDelta(modify_cells={
            nl.cell_names[i]: {"power": float(nl.powers[i]) * 40.0}
            for i in nl.movable_indices[20:60]
        }).apply(nl)
        base = KraftwerkPlacer(nl, region).place()
        driven = HeatDrivenPlacer(nl, region, heat_weight=2.0)
        result = driven.place()
        base_peak = driven.model.solve(base.placement).peak_temperature
        assert result.peak_temperature < base_peak * 1.02

    def test_shares_density_grid(self, small_circuit):
        nl = small_circuit.netlist
        driven = HeatDrivenPlacer(nl, small_circuit.region)
        assert driven.model.grid is driven.placer.force_calc.density_model.grid

"""Tests for the iterative force-directed placer."""

import numpy as np
import pytest

from repro import (
    KraftwerkPlacer,
    NetlistBuilder,
    Placement,
    PlacementRegion,
    PlacerConfig,
    distribution_stats,
    hpwl_meters,
    overlap_ratio,
)
from repro.core.forces import ForceCalculator
from repro.core.linearization import linearization_factors


def place_circuit(netlist, region, config=None, **place_kwargs):
    """Local stand-in for the deprecated repro.core.place_circuit shim."""
    return KraftwerkPlacer(netlist, region, config).place(**place_kwargs)


class TestConfig:
    def test_modes(self):
        assert PlacerConfig.standard().K == 0.2
        assert PlacerConfig.fast().K == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PlacerConfig(K=0.0)
        with pytest.raises(ValueError):
            PlacerConfig(max_iterations=0)
        with pytest.raises(ValueError):
            PlacerConfig(force_mode="bogus")


class TestInitialPlacement:
    def test_cells_near_center(self, small_circuit):
        placer = KraftwerkPlacer(small_circuit.netlist, small_circuit.region)
        p = placer.initial_placement()
        cx, cy = small_circuit.region.bounds.center
        movable = small_circuit.netlist.movable_indices
        assert np.abs(p.x[movable] - cx).max() < 0.01 * small_circuit.region.width

    def test_deterministic(self, small_circuit):
        placer = KraftwerkPlacer(small_circuit.netlist, small_circuit.region)
        a = placer.initial_placement()
        b = placer.initial_placement()
        assert np.array_equal(a.x, b.x)


class TestPlace:
    def test_no_movable_cells_rejected(self):
        b = NetlistBuilder("fixed-only")
        b.add_fixed_cell("p", 1.0, 1.0, x=0.0, y=0.0)
        region = PlacementRegion.standard_cell(10.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            KraftwerkPlacer(b.build(), region)

    def test_spreads_and_improves_over_random(self, placed_small, small_circuit, rng):
        result = placed_small
        stats = distribution_stats(result.placement, small_circuit.region)
        # Spreading: clumped start becomes a usable (legalizable) distribution.
        assert stats.overflow_area < 0.6 * small_circuit.netlist.movable_area()
        assert stats.empty_square_ratio < 8.0
        # Wire length far better than random.
        random_p = Placement.random(small_circuit.netlist, small_circuit.region, rng)
        assert result.hpwl_m < 0.6 * hpwl_meters(random_p)

    def test_history_recorded(self, placed_small):
        assert len(placed_small.history) == placed_small.iterations
        assert placed_small.history[0].iteration == 0
        assert all(s.seconds >= 0 for s in placed_small.history)

    def test_cells_inside_region(self, placed_small, small_circuit):
        p = placed_small.placement
        nl = small_circuit.netlist
        b = small_circuit.region.bounds
        m = nl.movable_mask
        assert np.all(p.x[m] - nl.widths[m] / 2 >= b.xlo - 1e-6)
        assert np.all(p.x[m] + nl.widths[m] / 2 <= b.xhi + 1e-6)

    def test_fixed_cells_untouched(self, placed_small, small_circuit):
        nl = small_circuit.netlist
        p = placed_small.placement
        for i in nl.fixed_indices:
            assert p.x[i] == nl.fixed_x[i]
            assert p.y[i] == nl.fixed_y[i]

    def test_deterministic(self, small_circuit):
        r1 = place_circuit(small_circuit.netlist, small_circuit.region)
        r2 = place_circuit(small_circuit.netlist, small_circuit.region)
        assert np.allclose(r1.placement.x, r2.placement.x)

    def test_resume_from_initial(self, placed_small, small_circuit):
        placer = KraftwerkPlacer(small_circuit.netlist, small_circuit.region)
        resumed = placer.place(initial=placed_small.placement, max_iterations=2)
        # Resuming from an even placement barely moves anything.
        moved = resumed.placement.mean_displacement_from(placed_small.placement)
        assert moved < 0.2 * small_circuit.region.width

    def test_max_iterations_respected(self, small_circuit):
        result = place_circuit(
            small_circuit.netlist, small_circuit.region, max_iterations=3
        )
        assert result.iterations <= 3

    def test_initial_forces_validation(self, small_circuit):
        placer = KraftwerkPlacer(small_circuit.netlist, small_circuit.region)
        with pytest.raises(ValueError):
            placer.place(initial_forces=(np.zeros(1), np.zeros(1)))


class TestHooks:
    def test_net_weight_hook_called(self, tiny_circuit):
        calls = []

        def hook(m, placement):
            calls.append(m)
            return np.ones(tiny_circuit.netlist.num_nets)

        place_circuit(
            tiny_circuit.netlist, tiny_circuit.region,
            PlacerConfig(max_iterations=4, min_iterations=4),
            net_weight_hook=hook,
        )
        assert calls == list(range(len(calls)))
        assert len(calls) >= 1

    def test_iteration_hook_sees_placements(self, tiny_circuit):
        seen = []

        def hook(stats, placement):
            seen.append((stats.iteration, placement.x.copy()))

        place_circuit(
            tiny_circuit.netlist, tiny_circuit.region,
            PlacerConfig(max_iterations=3, min_iterations=3),
            iteration_hook=hook,
        )
        assert len(seen) >= 1

    def test_extra_demand_hook(self, tiny_circuit):
        placer = KraftwerkPlacer(tiny_circuit.netlist, tiny_circuit.region)
        shape = placer.force_calc.density_model.grid.shape

        def extra(m, placement):
            out = np.zeros(shape)
            out[0, 0] = 100.0
            return out

        result = placer.place(extra_demand_hook=extra, max_iterations=3)
        assert result.iterations >= 1


class TestModes:
    @pytest.mark.parametrize("mode", ["hold", "accumulate", "replace"])
    def test_all_force_modes_run(self, tiny_circuit, mode):
        cfg = PlacerConfig(force_mode=mode, max_iterations=5, min_iterations=2)
        result = place_circuit(tiny_circuit.netlist, tiny_circuit.region, cfg)
        assert result.iterations >= 2

    def test_fast_mode_fewer_or_equal_iterations(self, small_circuit):
        std = place_circuit(
            small_circuit.netlist, small_circuit.region, PlacerConfig.standard()
        )
        fast = place_circuit(
            small_circuit.netlist, small_circuit.region, PlacerConfig.fast()
        )
        assert fast.iterations <= std.iterations + 2


class TestForceCalculator:
    def test_reference_force(self, small_circuit):
        calc = ForceCalculator(small_circuit.netlist, small_circuit.region)
        assert calc.reference_force(0.2) == pytest.approx(
            0.2 * small_circuit.region.half_perimeter
        )

    def test_forces_nonzero_for_clumped(self, small_circuit):
        calc = ForceCalculator(small_circuit.netlist, small_circuit.region)
        p = Placement.at_center(small_circuit.netlist, small_circuit.region)
        forces = calc.compute(p, K=0.2)
        assert forces.max_magnitude() > 0.0
        assert 0.0 < forces.unevenness <= 1.0

    def test_unevenness_lower_when_spread(self, small_circuit, placed_small):
        calc = ForceCalculator(small_circuit.netlist, small_circuit.region)
        clumped = Placement.at_center(small_circuit.netlist, small_circuit.region)
        f_clumped = calc.compute(clumped, K=0.2)
        f_spread = calc.compute(placed_small.placement, K=0.2)
        assert f_spread.unevenness < f_clumped.unevenness

    def test_stiffness_shape_checked(self, small_circuit):
        calc = ForceCalculator(small_circuit.netlist, small_circuit.region)
        p = Placement.at_center(small_circuit.netlist, small_circuit.region)
        with pytest.raises(ValueError):
            calc.compute(p, K=0.2, stiffness=np.ones(3))


class TestLinearization:
    def test_mean_normalized(self, placed_small):
        # Mean ~1 up to the post-normalization clipping of extreme factors.
        fx, fy = linearization_factors(placed_small.placement, gamma=1.0)
        assert fx.mean() == pytest.approx(1.0, rel=0.25)
        assert fy.mean() == pytest.approx(1.0, rel=0.25)
        assert fx.max() <= 10.0 and fx.min() >= 0.1

    def test_long_nets_downweighted(self, placed_small):
        from repro.evaluation import net_hpwl

        fx, fy = linearization_factors(placed_small.placement, gamma=1.0)
        lengths = net_hpwl(placed_small.placement)
        longest = int(np.argmax(lengths))
        assert fx[longest] < 1.0 or fy[longest] < 1.0

    def test_gamma_guard(self, placed_small):
        with pytest.raises(ValueError):
            linearization_factors(placed_small.placement, gamma=0.0)

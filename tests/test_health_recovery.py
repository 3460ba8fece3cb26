"""Fault-injection tests: prove every guardrail and recovery path fires.

These tests corrupt the pipeline at its hook sites (force field, CG result,
wall clock) and assert that the health guard attributes failures to the
right iteration and phase, that the CG recovery ladder escalates and the
run still completes, and that a blown deadline returns the best feasible
placement seen rather than garbage.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    KraftwerkPlacer,
    NumericalHealthError,
    PlacerConfig,
    Telemetry,
)
from repro.core import RECOVERY_RUNGS, solve_with_recovery
from repro.core.health import (
    STEP_LIMIT_FACTOR,
    HealthGuard,
    check_finite,
    clear_fault_hooks,
    install_fault_hook,
)
from repro.testing import burn_deadline, corrupt_field, fail_cg


def _counter_total(tel: Telemetry, counter: str) -> float:
    return sum(
        agg.get(counter, 0.0) for agg in tel.spans.totals().values()
    )


@pytest.fixture(autouse=True)
def _no_leaked_hooks():
    yield
    clear_fault_hooks()


# ----------------------------------------------------------------------
# Health guard attribution
# ----------------------------------------------------------------------
class TestHealthGuard:
    def test_nan_field_attributed_to_iteration_and_phase(self, tiny_circuit):
        placer = KraftwerkPlacer(tiny_circuit.netlist, tiny_circuit.region)
        with corrupt_field(at_iteration=2) as fault:
            with pytest.raises(NumericalHealthError) as err:
                placer.place(max_iterations=6)
        assert fault.fired == 1
        assert err.value.iteration == 2
        assert err.value.phase == "field"
        assert err.value.stats["nan"] > 0
        assert "iteration 2" in str(err.value)

    def test_inf_force_attributed_to_force_phase(self, tiny_circuit):
        placer = KraftwerkPlacer(tiny_circuit.netlist, tiny_circuit.region)
        with corrupt_field(at_iteration=0, kind="inf", target="force"):
            with pytest.raises(NumericalHealthError) as err:
                placer.place(max_iterations=3)
        assert err.value.phase == "force"
        assert err.value.stats["inf"] > 0

    def test_nan_density_attributed_to_density_phase(self, tiny_circuit):
        placer = KraftwerkPlacer(tiny_circuit.netlist, tiny_circuit.region)
        with corrupt_field(at_iteration=1, target="density"):
            with pytest.raises(NumericalHealthError) as err:
                placer.place(max_iterations=4)
        assert err.value.phase == "density"
        assert err.value.iteration == 1

    def test_guard_is_silent_on_healthy_run(self, tiny_circuit):
        tel = Telemetry()
        placer = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, telemetry=tel
        )
        result = placer.place(max_iterations=4)
        assert np.isfinite(result.hpwl_m)
        assert _counter_total(tel, "health_checks") > 0

    def test_check_finite_passes_clean_array(self):
        check_finite("x", np.arange(5.0), iteration=0, phase="solve")

    def test_solution_explosion_detected(self, tiny_circuit):
        guard = HealthGuard(tiny_circuit.region)
        reach = tiny_circuit.region.half_perimeter
        cx, cy = tiny_circuit.region.bounds.center
        x = np.array([cx, cx + 2.0 * STEP_LIMIT_FACTOR * reach])
        y = np.array([cy, cy])
        with pytest.raises(NumericalHealthError) as err:
            guard.check_solution(x, y, iteration=7)
        assert err.value.phase == "position"
        assert err.value.iteration == 7
        assert err.value.stats["max_offset"] > err.value.stats["limit"]


# ----------------------------------------------------------------------
# CG recovery ladder
# ----------------------------------------------------------------------
class TestRecoveryLadder:
    def test_stall_escalates_and_run_completes(self, tiny_circuit):
        tel = Telemetry()
        placer = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, telemetry=tel
        )
        with fail_cg(times=2, mode="stall") as fault:
            result = placer.place(max_iterations=4)
        assert fault.fired == 2
        assert result.recovery_escalations >= 2
        assert np.isfinite(result.hpwl_m)
        assert np.isfinite(result.placement.x).all()
        assert _counter_total(tel, "recovery_tighten") >= 1

    def test_divergence_falls_through_to_direct(self, tiny_circuit):
        # 'diverge' fails three consecutive CG attempts (rung 0 plus the
        # tighten and cold-start retries), so the ladder must reach the
        # direct sparse solve to finish the transformation.
        tel = Telemetry()
        placer = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, telemetry=tel
        )
        with fail_cg(times=3, mode="diverge") as fault:
            result = placer.place(max_iterations=3)
        assert fault.fired == 3
        assert np.isfinite(result.hpwl_m)
        assert _counter_total(tel, "recovery_direct") >= 1

    def test_escalations_recorded_per_iteration(self, tiny_circuit):
        placer = KraftwerkPlacer(tiny_circuit.netlist, tiny_circuit.region)
        with fail_cg(times=1, mode="stall"):
            result = placer.place(max_iterations=3)
        assert sum(s.recovery_escalations for s in result.history) >= 1


class TestSolveWithRecoveryUnit:
    def _system(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) * 0.1
        A = sp.csr_matrix(m @ m.T + n * np.eye(n))
        b = rng.standard_normal(n)
        return A, b

    def test_happy_path_is_plain_cg(self):
        A, b = self._system()
        result = solve_with_recovery(A, b, tol=1e-10)
        assert result.converged
        assert result.escalations == []
        assert np.allclose(A @ result.x, b, atol=1e-6)

    def test_nonfinite_rhs_raises(self):
        A, b = self._system()
        b[0] = np.nan
        with pytest.raises(NumericalHealthError) as err:
            solve_with_recovery(A, b)
        assert err.value.phase == "solve"

    def test_ladder_order_matches_contract(self):
        assert RECOVERY_RUNGS == ("tighten", "cold_start", "direct", "anchored")

    def test_persistent_cg_failure_reaches_direct(self):
        A, b = self._system()

        def always_stall(result, A_, b_):
            from dataclasses import replace

            return replace(result, converged=False)

        install_fault_hook("cg", always_stall)
        try:
            result = solve_with_recovery(A, b, tol=1e-10)
        finally:
            clear_fault_hooks()
        assert "direct" in result.escalations
        assert np.allclose(A @ result.x, b, atol=1e-6)

    def test_singular_matrix_survives_via_anchor(self):
        # A singular (rank-deficient) system: CG is unusable and the exact
        # solve is ill-posed, so only the anchored rung can produce a
        # finite answer.
        n = 6
        A = sp.csr_matrix(np.zeros((n, n)))
        b = np.zeros(n)
        result = solve_with_recovery(A, b)
        assert np.isfinite(result.x).all()
        assert "anchored" in result.escalations


# ----------------------------------------------------------------------
# Deadline / best-so-far
# ----------------------------------------------------------------------
class TestDeadline:
    def test_deadline_returns_best_feasible(self, tiny_circuit):
        placer = KraftwerkPlacer(
            tiny_circuit.netlist,
            tiny_circuit.region,
            PlacerConfig(deadline_seconds=0.4),
        )
        with burn_deadline(seconds=0.25) as fault:
            result = placer.place(max_iterations=50)
        assert fault.fired >= 1
        assert result.timed_out
        assert result.iterations < 50
        assert np.isfinite(result.hpwl_m)
        assert np.isfinite(result.placement.x).all()
        # Best-so-far contract: never worse than the last completed iterate
        # under the (feasibility, HPWL) order used for tracking.
        finished = [s for s in result.history if np.isfinite(s.hpwl_m)]
        if finished:
            assert result.hpwl_m <= max(s.hpwl_m for s in finished) + 1e-12

    def test_deadline_shorter_than_one_iteration(self, tiny_circuit):
        placer = KraftwerkPlacer(
            tiny_circuit.netlist,
            tiny_circuit.region,
            PlacerConfig(deadline_seconds=1e-9),
        )
        result = placer.place(max_iterations=10)
        assert result.timed_out
        assert result.iterations == 0
        assert np.isfinite(result.hpwl_m)
        assert np.isfinite(result.placement.x).all()

    def test_no_deadline_runs_to_completion(self, tiny_circuit):
        placer = KraftwerkPlacer(tiny_circuit.netlist, tiny_circuit.region)
        result = placer.place(max_iterations=5)
        assert not result.timed_out
        assert result.iterations == 5

"""The array-backend layer: resolution and cross-backend parity.

The parity classes parameterize over every backend importable in this
environment (numpy always; torch when installed), pinning each backend's
hot-path kernels against the numpy reference.  Without torch the
accelerator rows skip.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backend import (
    BACKEND_NAMES,
    NUMPY,
    available_backends,
    resolve_backend,
)
from repro.core import (
    KraftwerkPlacer,
    PlacerConfig,
    bilinear_sample,
    conjugate_gradient,
    solver_for_grid,
    splat_bilinear,
)
from repro.core.density import DensityResult
from repro.geometry import Grid, Rect

AVAILABLE = available_backends()

#: One param per known backend; missing accelerators turn into skips so
#: the same suite runs on a CPU-only CI and a GPU box without edits.
BACKEND_PARAMS = [
    pytest.param(
        name,
        marks=()
        if name in AVAILABLE
        else pytest.mark.skipif(True, reason=f"{name} not installed"),
    )
    for name in BACKEND_NAMES
]


def _density(grid: Grid, rng) -> DensityResult:
    density = rng.normal(size=grid.shape)
    density -= density.mean()
    return DensityResult(
        grid=grid,
        demand=np.maximum(density, 0.0),
        supply_rate=0.0,
        density=density,
    )


class TestResolveBackend:
    def test_default_is_numpy_singleton(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend() is NUMPY
        assert resolve_backend(None) is NUMPY
        assert resolve_backend("numpy") is NUMPY
        assert NUMPY.is_numpy and NUMPY.name == "numpy"

    def test_name_is_case_insensitive(self):
        assert resolve_backend("NumPy") is NUMPY

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None) is NUMPY
        monkeypatch.setenv("REPRO_BACKEND", "galactic")
        with pytest.raises(ValueError, match="unknown array backend"):
            resolve_backend(None)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            resolve_backend("galactic")

    def test_missing_accelerator_is_actionable(self):
        for name in ("torch",):
            if name in AVAILABLE:
                continue
            with pytest.raises(ValueError, match="not installed"):
                resolve_backend(name)

    def test_available_backends_starts_with_numpy(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert set(names) <= set(BACKEND_NAMES)

    def test_config_validates_backend_name(self):
        with pytest.raises(ValueError):
            PlacerConfig(backend="galactic")

    def test_placer_fails_fast_on_missing_accelerator(self, tiny_circuit):
        for name in ("torch",):
            if name in AVAILABLE:
                continue
            config = PlacerConfig(backend=name)
            with pytest.raises(ValueError, match="not installed"):
                KraftwerkPlacer(
                    tiny_circuit.netlist, tiny_circuit.region, config
                )


class TestBackendParity:
    """Every installed backend must reproduce the numpy hot-path kernels."""

    GRID = Grid(Rect(0, 0, 51, 39), 17, 13)

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_splat_parity(self, name, rng):
        bk = resolve_backend(name)
        x = rng.uniform(-5, 56, size=300)
        y = rng.uniform(-5, 44, size=300)
        mass = rng.uniform(0.1, 4.0, size=300)
        ref = splat_bilinear(self.GRID, x, y, mass)
        got = splat_bilinear(self.GRID, x, y, mass, backend=bk)
        assert isinstance(got, np.ndarray)
        assert np.allclose(got, ref, atol=1e-10)

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_field_parity(self, name, rng):
        bk = resolve_backend(name)
        d = _density(self.GRID, rng)
        ref = solver_for_grid(self.GRID).field(d)
        got = solver_for_grid(self.GRID, bk).field(d)
        scale = max(np.abs(ref.fx).max(), np.abs(ref.fy).max(), 1.0)
        assert np.allclose(got.fx, ref.fx, atol=1e-9 * scale)
        assert np.allclose(got.fy, ref.fy, atol=1e-9 * scale)

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_sample_parity(self, name, rng):
        bk = resolve_backend(name)
        field = rng.normal(size=self.GRID.shape)
        x = rng.uniform(-10, 61, size=200)
        y = rng.uniform(-10, 49, size=200)
        ref = bilinear_sample(self.GRID, field, x, y)
        got = bilinear_sample(self.GRID, field, x, y, backend=bk)
        assert isinstance(got, np.ndarray)
        assert np.allclose(got, ref, atol=1e-12)

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_cg_parity(self, name, rng):
        bk = resolve_backend(name)
        n = 60
        M = rng.normal(size=(n, n))
        A = sp.csr_matrix(M @ M.T + n * np.eye(n))
        b = rng.normal(size=n)
        ref = conjugate_gradient(A, b, tol=1e-10)
        got = conjugate_gradient(A, b, tol=1e-10, backend=bk)
        assert got.converged and ref.converged
        assert isinstance(got.x, np.ndarray)
        assert np.allclose(got.x, ref.x, atol=1e-7 * np.abs(ref.x).max())

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_tiny_placement_runs(self, name, tiny_circuit):
        config = PlacerConfig(backend=name)
        result = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, config
        ).place(max_iterations=3)
        assert result.iterations == 3
        assert np.isfinite(result.hpwl_m) and result.hpwl_m > 0


class TestNumpyDefaultUnchanged:
    """Explicit numpy routing must stay bit-identical to the default path."""

    def test_cg_bit_identical(self, rng):
        n = 80
        M = rng.normal(size=(n, n))
        A = sp.csr_matrix(M @ M.T + n * np.eye(n))
        b = rng.normal(size=n)
        default = conjugate_gradient(A, b, tol=1e-10)
        routed = conjugate_gradient(A, b, tol=1e-10, backend=NUMPY)
        assert default.x.tobytes() == routed.x.tobytes()
        assert default.iterations == routed.iterations

    def test_tiny_placement_bit_identical(self, tiny_circuit):
        def coords(backend):
            cfg = PlacerConfig(backend=backend)
            r = KraftwerkPlacer(
                tiny_circuit.netlist, tiny_circuit.region, cfg
            ).place(max_iterations=6)
            return (
                r.placement.x.tobytes(),
                r.placement.y.tobytes(),
            )

        assert coords(None) == coords("numpy")

    def test_committed_determinism_hash_reproduced(self):
        # The live tiny hash vs the committed report — the strongest "the
        # backend layer changed nothing by default" pin we can run in CI.
        import json
        from pathlib import Path

        from repro.observability.bench import run_bench

        bench = Path(__file__).resolve().parent.parent / "BENCH_kraftwerk.json"
        report = json.loads(bench.read_text(encoding="utf-8"))
        golden = next(r for r in report["runs"] if r["size"] == "tiny")
        live = run_bench("tiny", seed=golden["seed"], legalize=False)
        assert live["determinism"]["hash"] == golden["determinism"]["hash"]

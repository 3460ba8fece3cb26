"""Meta-tests on the public API surface: exports resolve, docs exist."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.parallel",
    "repro.core",
    "repro.netlist",
    "repro.geometry",
    "repro.evaluation",
    "repro.timing",
    "repro.legalize",
    "repro.baselines",
    "repro.congestion",
    "repro.thermal",
    "repro.eco",
    "repro.floorplan",
    "repro.viz",
    "repro.observability",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} has no module docstring"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_documented(package):
    """Every exported class and function carries a docstring."""
    module = importlib.import_module(package)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, f"{package}: no docstring on {undocumented}"


def test_top_level_version():
    import repro

    assert repro.__version__


def test_no_private_leaks():
    """__all__ never exports underscore-prefixed names."""
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            assert not name.startswith("_"), f"{package} exports private {name}"


class TestFacadeStability:
    """The repro.api facade is the stable entry point: its signature is a
    compatibility contract, so a keyword rename or a positionalized flag
    must fail loudly here before it reaches downstream callers."""

    def test_place_signature(self):
        from repro.api import place

        sig = inspect.signature(place)
        params = list(sig.parameters.values())
        assert params[0].name == "source"
        assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        keyword_only = {
            p.name: p.default for p in params[1:]
        }
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[1:]
        ), "everything after source must be keyword-only"
        assert keyword_only["config"] is None
        assert keyword_only["legalize"] is True
        assert keyword_only["seed"] == 0

    def test_client_map_signature(self):
        """`Client.map` is the batch entry point for both transports:
        its keywords are a compatibility contract."""
        from repro.api import Client

        sig = inspect.signature(Client.map)
        params = list(sig.parameters.values())
        assert params[1].name == "sources"
        keyword_only = {p.name: p.default for p in params[2:]}
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[2:]
        )
        assert keyword_only["seeds"] is None
        assert keyword_only["workers"] is None
        assert keyword_only["mp_context"] == "auto"

    def test_facade_exported_at_top_level(self):
        import repro

        assert repro.place is importlib.import_module("repro.api").place
        for name in ("place", "Client", "FlowResult", "PlacementJob",
                     "run_batch", "BatchResult"):
            assert name in repro.__all__

    def test_place_many_removed(self):
        """``place_many`` is gone; the migration path is
        ``Client.local().map`` (see docs/API.md)."""
        import repro
        import repro.api

        assert not hasattr(repro, "place_many")
        assert not hasattr(repro.api, "place_many")
        assert "place_many" not in repro.__all__
        assert "place_many" not in repro.api.__all__

    def test_place_circuit_shim_removed(self):
        """The 1.1-era ``place_circuit`` shim is gone as of 1.3.0; the
        migration path is :func:`repro.api.place` (see docs/API.md)."""
        import repro
        import repro.core

        assert not hasattr(repro, "place_circuit")
        assert not hasattr(repro.core, "place_circuit")
        assert "place_circuit" not in repro.__all__
        assert "place_circuit" not in repro.core.__all__

    def test_client_submit_signature(self):
        """`Client.submit` is the one enqueue point for both transports —
        its keywords are a wire-visible contract (they become spec keys)."""
        from repro.api import Client

        sig = inspect.signature(Client.submit)
        params = list(sig.parameters.values())
        assert params[0].name == "self"
        assert params[1].name == "source"
        assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        keyword_only = {p.name: p.default for p in params[2:]}
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[2:]
        ), "everything after source must be keyword-only"
        assert keyword_only["seed"] == 0
        assert keyword_only["config"] is None
        assert keyword_only["legalize"] is True
        assert keyword_only["tenant"] == "default"
        assert keyword_only["priority"] == 0
        assert keyword_only["subscribe"] is False
        assert keyword_only["job_id"] is None

    def test_client_constructors(self):
        """Both transports come from classmethod constructors, and the
        raw ``__init__`` stays out of the contract."""
        from repro.api import Client

        local = inspect.signature(Client.local)
        assert set(local.parameters) == {
            "service", "service_config", "events"
        }
        connect = inspect.signature(Client.connect)
        params = connect.parameters
        assert list(params)[:2] == ["host", "port"]
        assert params["host"].default == "127.0.0.1"
        assert params["token"].default == "default"
        assert params["token"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_job_handle_surface(self):
        from repro.api import JobHandle

        for method in ("stream", "result", "cancel"):
            assert callable(getattr(JobHandle, method))
        sig = inspect.signature(JobHandle.__init__)
        assert {"job_id", "admitted", "shed_reason", "cached"} <= set(
            sig.parameters
        )


#: Every settable value has a caller that needs a value other than its
#: default (a module, a bench, an example, CI, or a test driving other
#: behaviour).  Adding a knob is a deliberate edit of these lists.
PLACER_CONFIG_FIELDS = [
    "K", "max_iterations", "min_iterations", "force_mode", "linearize",
    "net_model", "clique_threshold", "seed", "verbose", "deadline_seconds",
    "checkpoint_path", "checkpoint_every", "multilevel_levels",
    "multilevel_refine_iterations", "backend", "legalize_bands",
    "legalize_threads", "improver_min_gain",
]
SERVICE_CONFIG_FIELDS = [
    "workers", "mp_context", "job_timeout_seconds", "retry",
    "max_queue_depth", "tenant_quota", "checkpoint_dir", "checkpoint_every",
    "backoff_base_s", "backoff_cap_s", "tick_seconds", "trace_dir",
    "inject_faults", "cache_bytes",
]
#: Config keys that became constants (see docs/API.md).
REMOVED_PLACER_KEYS = [
    "stop_empty_square_cells", "stop_overflow_fraction", "response_tether",
    "spread_pin", "kick_memory", "stall_iterations", "density_bins",
    "max_density_bins", "anchor_weight", "clamp_to_region", "health_checks",
    "recovery", "step_limit_factor",
]


class TestKnobCensus:
    def test_placer_config_fields(self):
        from dataclasses import fields

        from repro import PlacerConfig

        assert [f.name for f in fields(PlacerConfig)] == PLACER_CONFIG_FIELDS

    def test_service_config_fields(self):
        from dataclasses import fields

        from repro.service import ServiceConfig

        assert [f.name for f in fields(ServiceConfig)] == SERVICE_CONFIG_FIELDS

    def test_worker_pool_parameters(self):
        from repro.service import WorkerPool

        assert list(inspect.signature(WorkerPool).parameters) == [
            "workers", "mp_context", "backoff_base_s", "backoff_cap_s",
            "inject_faults", "events",
        ]

    @pytest.mark.parametrize("key", REMOVED_PLACER_KEYS)
    def test_removed_placer_key_rejected(self, key):
        from repro import PlacerConfig

        with pytest.raises(ValueError, match="unknown PlacerConfig keys") as err:
            PlacerConfig.from_dict({key: 1})
        assert repr(key) in str(err.value)

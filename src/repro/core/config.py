"""Configuration of the force-directed placer.

The paper exposes essentially one knob — the force strength ``K`` (Section
4.1): forces are scaled so the strongest additional force equals the pull of
a net of length ``K (W + H)``.  ``K = 0.2`` is the paper's standard mode,
``K = 1.0`` its fast mode.  Everything else here is an implementation
parameter with a paper-faithful default.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

from ..backend import BACKEND_NAMES

STANDARD_K = 0.2
FAST_K = 1.0

#: argparse destination -> config field, for :meth:`PlacerConfig.from_args`.
#: Only destinations present on the namespace are consulted, so every CLI
#: subcommand can register an arbitrary subset of these flags.
_ARG_FIELDS = {
    "net_model": "net_model",
    "seed": "seed",
    "verbose": "verbose",
    "deadline": "deadline_seconds",
    "checkpoint": "checkpoint_path",
    "checkpoint_every": "checkpoint_every",
    "max_iterations": "max_iterations",
    "multilevel": "multilevel_levels",
    "multilevel_refine": "multilevel_refine_iterations",
    "backend": "backend",
    "legalize_bands": "legalize_bands",
    "legalize_threads": "legalize_threads",
    "improver_min_gain": "improver_min_gain",
}


@dataclass
class PlacerConfig:
    """All knobs of :class:`~repro.core.placer.KraftwerkPlacer`.

    Attributes
    ----------
    K:
        Force strength parameter from Section 4.1.  Larger values spread the
        placement faster at some wire-length cost (Section 6.1 reports the
        fast mode at roughly one third of the runtime and +6 % wire length).
    max_iterations:
        Safety bound on placement transformations.
    min_iterations:
        Run at least this many transformations before testing the stopping
        criterion (the criterion is trivially false right after the
        all-cells-at-center initialization).
    force_mode:
        How the constant force vector ``e`` of Eq. 3 evolves between
        transformations.

        * ``"hold"`` (default): ``e`` is recomputed each step as the *hold
          force* ``C p_cur + d`` that makes the current placement the exact
          equilibrium of the freshly assembled (re-linearized, re-weighted)
          system, relaxed toward the quadratic optimum, plus the new
          density kick.  Algebraically identical to the paper's
          accumulated force when ``C`` is constant, but immune to the
          equilibrium drift that re-linearization causes.
        * ``"accumulate"``: the paper-literal ``e <- e + f`` accumulation.
        * ``"replace"``: ``e <- f`` (no memory) — ablation only; the
          placement collapses back toward the quadratic optimum.
    linearize:
        Apply GORDIAN-L style net-weight linearization [14] so the quadratic
        solve approximates linear wire length.
    net_model:
        ``"clique"`` (the paper's model; stars above ``clique_threshold``)
        or ``"b2b"`` — the bound-to-bound model that linearizes HPWL exactly
        and therefore ignores the ``linearize`` flag.
    clique_threshold:
        Nets with more pins than this are expanded as stars (one auxiliary
        movable vertex) instead of cliques to keep the matrix sparse.
    seed:
        Seed for the tiny symmetry-breaking jitter applied at initialization
        (all cells exactly on one point is a degenerate density pattern).
    verbose:
        Print one line per placement transformation.
    deadline_seconds:
        Wall-clock budget for :meth:`~repro.core.placer.KraftwerkPlacer.
        place`.  When exceeded, the run stops and returns the best
        feasible placement seen so far (never a worse or non-finite one);
        ``None`` disables the deadline.
    checkpoint_path:
        When set, a resumable snapshot (positions + accumulated forces +
        warm-start state + iteration counter) is written here every
        ``checkpoint_every`` transformations; see
        :mod:`repro.core.checkpoint`.
    checkpoint_every:
        Snapshot period in transformations.
    multilevel_levels:
        Number of clustering (coarsening) levels for the multilevel V-cycle
        (:class:`~repro.core.multilevel.MultilevelPlacer`).  ``0`` (the
        default) places flat; ``N >= 1`` coarsens the netlist ``N`` times,
        places the coarsest level with the full iteration budget and
        refines each finer level with ``multilevel_refine_iterations``
        transformations.  :func:`repro.api.place` and the CLI route through
        the V-cycle whenever this is positive.
    multilevel_refine_iterations:
        Transformation budget for each refinement stage of the V-cycle
        (every level that starts from an expanded coarser placement,
        including the final full-netlist stage).
    backend:
        Array backend for the field/solve hot path: ``"numpy"`` (default,
        bit-identical reference) or ``"torch"`` (CPU, or GPU with
        ``REPRO_TORCH_DEVICE=cuda``).  ``None``
        consults the ``REPRO_BACKEND`` environment variable and falls back
        to numpy.  Accelerator backends are resolved lazily at placer
        construction and raise an actionable error when the library is
        missing; see ``docs/BACKENDS.md``.
    legalize_bands:
        Number of row bands the Abacus snap sweeps independently (merged
        deterministically; bit-identical to the serial sweep at every band
        count — see ``legalize/vector.py``).  ``0`` (default) sizes bands
        automatically from the cell count (serial below ~20k cells);
        ``1`` forces the serial sweep.
    legalize_threads:
        Worker threads for the banded snap.  Results never depend on this
        value; ``1`` (default) keeps the sweep on the calling thread.
    improver_min_gain:
        Relative early-exit threshold for the detailed improver: stop when
        a whole pass recovers less than this fraction of the
        pre-improvement HPWL.  ``0.0`` (default) runs every pass — the
        bit-identical reference schedule.
    """

    K: float = STANDARD_K
    max_iterations: int = 120
    min_iterations: int = 5
    force_mode: str = "hold"
    linearize: bool = True
    net_model: str = "clique"
    clique_threshold: int = 20
    seed: int = 2207
    verbose: bool = False
    deadline_seconds: Optional[float] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 10
    multilevel_levels: int = 0
    multilevel_refine_iterations: int = 12
    backend: Optional[str] = None
    legalize_bands: int = 0
    legalize_threads: int = 1
    improver_min_gain: float = 0.0

    def __post_init__(self) -> None:
        if self.K <= 0:
            raise ValueError(f"K must be positive, got {self.K}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.clique_threshold < 2:
            raise ValueError("clique_threshold must be at least 2")
        if self.net_model not in ("clique", "b2b"):
            raise ValueError(
                f"net_model must be 'clique' or 'b2b', got {self.net_model!r}"
            )
        if self.force_mode not in ("hold", "accumulate", "replace"):
            raise ValueError(
                f"force_mode must be 'hold', 'accumulate' or 'replace', "
                f"got {self.force_mode!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive (or None)")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.multilevel_levels < 0:
            raise ValueError("multilevel_levels must be >= 0 (0 = flat)")
        if self.multilevel_refine_iterations < 1:
            raise ValueError("multilevel_refine_iterations must be >= 1")
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES} or None, "
                f"got {self.backend!r}"
            )
        if self.legalize_bands < 0:
            raise ValueError("legalize_bands must be >= 0 (0 = auto)")
        if self.legalize_threads < 1:
            raise ValueError("legalize_threads must be >= 1")
        if not 0.0 <= self.improver_min_gain < 1.0:
            raise ValueError(
                "improver_min_gain must be in [0, 1) (0 disables early exit)"
            )

    @classmethod
    def standard(cls, **overrides) -> "PlacerConfig":
        """The paper's standard mode (K = 0.2)."""
        return cls(K=STANDARD_K, **overrides)

    @classmethod
    def fast(cls, **overrides) -> "PlacerConfig":
        """The paper's fast mode (K = 1.0), for floorplanning estimation."""
        return cls(K=FAST_K, **overrides)

    # ------------------------------------------------------------------
    # Serialization: one canonical dict form shared by the CLI, the batch
    # engine's job specs, and checkpoint metadata.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every knob; round-trips via :meth:`from_dict`.

        Every field is a scalar (bool/int/float/str/None), so the result can
        be embedded verbatim in checkpoint metadata, batch job specs, and
        bench reports.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "PlacerConfig":
        """Rebuild a config from its :meth:`to_dict` form.

        ``None`` and ``{}`` yield the default config.  Unknown keys raise
        ``ValueError`` (a typo in a job spec or a checkpoint written by a
        newer version should fail loudly, not be silently dropped).
        """
        if not data:
            return cls()
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown PlacerConfig keys: {unknown}")
        return cls(**dict(data))

    @classmethod
    def from_args(cls, args, **overrides) -> "PlacerConfig":
        """Build a config from an ``argparse`` namespace.

        Consolidates the CLI's scattered placer flags (``--fast``,
        ``--net-model``, ``--deadline``, ``--checkpoint``,
        ``--checkpoint-every``, ``--seed``, ``--verbose``, …) into one
        canonical mapping; flags absent from the namespace fall back to the
        dataclass defaults, so every subcommand can expose a subset.
        Keyword ``overrides`` win over namespace values.
        """
        kwargs: Dict[str, Any] = {}
        if getattr(args, "fast", False):
            kwargs["K"] = FAST_K
        if getattr(args, "K", None) is not None:
            kwargs["K"] = float(args.K)
        for arg_name, field_name in _ARG_FIELDS.items():
            value = getattr(args, arg_name, None)
            if value is not None:
                kwargs[field_name] = value
        kwargs.update(overrides)
        return cls(**kwargs)

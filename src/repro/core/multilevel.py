"""Multilevel (V-cycle) placement: coarsen repeatedly, place the coarsest
level with the full iteration budget, then expand and refine level by level.

A speed extension beyond the paper: heavy-edge clustering shrinks the
netlist ~2-5x per level, the force-directed placer runs from scratch only on
the coarsest (cheapest) netlist, and every finer level starts from the
expanded placement of the level above — so it needs only a short refinement
run (``refine_iterations`` transformations) to separate cluster members and
polish wire length.  This is what makes 100k+-cell circuits placeable in
reasonable wall-clock (see ``docs/MULTILEVEL.md``).

The flow runs through :func:`repro.api.place` whenever
``PlacerConfig.multilevel_levels`` is positive: ``repro place --multilevel
2``, ``repro bench`` on the scale sizes and every batch or service job
with such a config.

Checkpointing: only the final full-netlist refinement stage writes
checkpoints (coarse stages run with ``checkpoint_path=None``), so a
checkpoint file always describes the original netlist and
``place(resume_from=...)`` can skip the whole down-up traversal and resume
the refinement directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace
from typing import List, Optional

from ..netlist import Netlist, Placement
from ..netlist.clustering import Clustering, cluster_netlist_multi
from ..geometry import PlacementRegion
from ..observability import NULL_TELEMETRY
from .config import PlacerConfig
from .placer import KraftwerkPlacer, PlacementResult


@dataclass
class MultilevelResult:
    placement: Placement
    coarse_results: List[PlacementResult]
    refine_result: PlacementResult
    levels: int
    seconds: float

    @property
    def hpwl_m(self) -> float:
        from ..evaluation.wirelength import hpwl_meters

        return hpwl_meters(self.placement)

    @property
    def total_iterations(self) -> int:
        """Transformations across every level of the V-cycle."""
        return self.refine_result.iterations + sum(
            r.iterations for r in self.coarse_results
        )


class MultilevelPlacer:
    """Cluster down, place the coarsest, expand and refine back up.

    ``levels``/``refine_iterations`` default to the config's
    ``multilevel_levels`` (floored at 1 — constructing this class *is* the
    request for a multilevel run) and ``multilevel_refine_iterations``.
    """

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        config: Optional[PlacerConfig] = None,
        levels: Optional[int] = None,
        refine_iterations: Optional[int] = None,
        telemetry=None,
    ):
        self.config = config or PlacerConfig()
        if levels is None:
            levels = max(1, self.config.multilevel_levels)
        if levels < 1:
            raise ValueError("need at least one coarsening level")
        if refine_iterations is None:
            refine_iterations = self.config.multilevel_refine_iterations
        self.netlist = netlist
        self.region = region
        self.levels = levels
        self.refine_iterations = refine_iterations
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def place(self, resume_from=None, iteration_hook=None) -> MultilevelResult:
        """Run the V-cycle; ``resume_from`` (a checkpoint of the original
        netlist) skips the coarse traversal and resumes the refinement.

        ``iteration_hook`` observes the level-0 refinement only — coarse
        levels place clusters, whose stats would mislead a progress
        stream — and opens that placer's observer gate exactly like
        :meth:`KraftwerkPlacer.place`.
        """
        t0 = time.perf_counter()
        telemetry = self.telemetry
        # Coarse stages never checkpoint: a snapshot must always describe
        # the original netlist so resume paths need no cluster state.
        coarse_cfg = dc_replace(self.config, checkpoint_path=None)

        clusterings: List[Clustering] = []
        coarse_results: List[PlacementResult] = []
        placement: Optional[Placement] = None
        if resume_from is None:
            with telemetry.span("coarsen") as span:
                # One multi-level clustering pass: the pair table is
                # extracted once from the finest netlist and remapped per
                # level instead of re-walking every coarse net.
                clusterings = cluster_netlist_multi(self.netlist, self.levels)
                span.add("levels", len(clusterings))
                if clusterings:
                    span.add(
                        "coarsest_cells", clusterings[-1].coarse.num_movable
                    )

            # Downward pass done; now place bottom-up.  The coarsest level
            # runs with the full iteration budget (it is the only level
            # placed from scratch); every finer level only refines the
            # expanded placement of the level above.
            for depth, clustering in enumerate(reversed(clusterings)):
                level = len(clusterings) - depth  # coarsest = highest
                with telemetry.span(f"level-{level}") as span:
                    with telemetry.span("setup"):
                        placer = KraftwerkPlacer(
                            clustering.coarse, self.region, coarse_cfg,
                            telemetry=telemetry,
                        )
                    result = placer.place(
                        initial=placement,
                        max_iterations=(
                            None if placement is None
                            else self.refine_iterations
                        ),
                    )
                    coarse_results.append(result)
                    # Cheap overlap-reduction snap: spread cluster members
                    # side by side instead of stacking them at the center,
                    # so the finer level refines a nearly-legal spread
                    # rather than re-discovering it.  Full legalization
                    # runs only once, after the final level.
                    with telemetry.span("expand"):
                        placement = clustering.expand(
                            result.placement, spread=True
                        )
                    span.add("cells", clustering.coarse.num_movable)
                    span.add("iterations", result.iterations)

        with telemetry.span("level-0") as span:
            with telemetry.span("setup"):
                refine_placer = KraftwerkPlacer(
                    self.netlist, self.region, self.config, telemetry=telemetry
                )
            refine = refine_placer.place(
                initial=placement,
                max_iterations=(
                    None if resume_from is not None
                    else self.refine_iterations
                ),
                resume_from=resume_from,
                iteration_hook=iteration_hook,
            )
            span.add("cells", self.netlist.num_movable)
            span.add("iterations", refine.iterations)
        return MultilevelResult(
            placement=refine.placement,
            coarse_results=coarse_results,
            refine_result=refine,
            levels=len(clusterings),
            seconds=time.perf_counter() - t0,
        )

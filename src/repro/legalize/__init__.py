"""Legalization and final placement (the flow role of Domino [17]).

One production engine per stage: :class:`VectorAbacusLegalizer` snaps
cells to rows and :class:`VectorImprover` polishes the legal placement;
:class:`DominoImprover` optionally follows.  :class:`TetrisLegalizer` is
kept as the ablation baseline.  The scalar Abacus the snap is pinned
against lives in :mod:`repro.testing.oracles`.
"""

from typing import Sequence

from ..geometry import PlacementRegion, Rect
from ..netlist import Placement
from ..observability import NULL_TELEMETRY
from .segments import Segment, build_segments, total_capacity
from .greedy import TetrisLegalizer
from .domino import DominoImprover
from .extents import MoveEvaluator
from .improver import ImprovementResult, VectorImprover
from .vector import LegalizationResult, VectorAbacusLegalizer

#: Improvement passes of the final-placement polish.
_IMPROVER_PASSES = 7


def final_placement(
    placement: Placement,
    region: PlacementRegion,
    obstacles: Sequence[Rect] = (),
    use_domino: bool = False,
    telemetry=NULL_TELEMETRY,
    bands: int = 0,
    threads: int = 1,
    improver_min_gain: float = 0.0,
) -> Placement:
    """Global placement -> legal, locally optimized placement.

    This is the "final placement step" the paper applies after global
    placement (Section 6.1 uses Domino): Abacus legalization
    (:class:`~repro.legalize.vector.VectorAbacusLegalizer`) followed by
    greedy exact-delta improvement
    (:class:`~repro.legalize.improver.VectorImprover`), optionally topped
    by the Domino-style window assignment (``use_domino=True``) which
    untangles permutations beyond the reach of pairwise swaps.
    ``obstacles`` (placed blocks, in-core fixed cells) carve the rows into
    segments for every stage.

    ``bands``/``threads`` drive the banded-parallel snap (bit-identical to
    the serial sweep at every setting) and ``improver_min_gain`` the
    improver's relative early exit.
    """
    with telemetry.span("legalize") as leg_span:
        with telemetry.span("snap"):
            legal = VectorAbacusLegalizer(
                region, obstacles=obstacles, bands=bands, threads=threads
            ).legalize(placement)
        if not legal.success:
            raise RuntimeError(
                f"legalization failed for {len(legal.failed_cells)} cells"
            )
        result = legal.placement
        with telemetry.span("improve"):
            result = VectorImprover(
                region, max_passes=_IMPROVER_PASSES, obstacles=obstacles,
                min_gain=improver_min_gain,
            ).improve(result).placement
        if use_domino:
            with telemetry.span("domino"):
                result = DominoImprover(
                    region, obstacles=obstacles
                ).improve(result).placement
        leg_span.add("cells", len(legal.placement.x))
        return result


__all__ = [
    "Segment",
    "build_segments",
    "total_capacity",
    "VectorAbacusLegalizer",
    "TetrisLegalizer",
    "LegalizationResult",
    "VectorImprover",
    "DominoImprover",
    "MoveEvaluator",
    "ImprovementResult",
    "final_placement",
]

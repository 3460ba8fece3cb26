"""The iterative force-directed global placer (Section 4).

One *placement transformation* (Section 4.1):

1. compute the density of the current placement and the Poisson force field,
2. sample the field at every movable cell and scale so the strongest force
   equals the pull of a net of length ``K (W + H)``,
3. accumulate the forces into the constant force vector ``e``,
4. re-assemble the quadratic system (with net-weight linearization [14] and
   any runtime net weights, e.g. timing weights) and solve
   ``C p + d + e = 0`` by preconditioned conjugate gradients.

The full algorithm (Section 4.2) starts with all cells at the region center
and zero forces, applies transformations until no empty square larger than
four times the average cell area remains, and is completely restart-able:
:class:`PlacementResult` carries the accumulated forces, so ECO flows can
resume from a previous equilibrium (Section 5).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend import resolve_backend
from ..evaluation.wirelength import hpwl_meters
from ..geometry import PlacementRegion, largest_empty_square_side
from ..netlist import Netlist, Placement
from ..observability import NULL_TELEMETRY
from .checkpoint import (
    PlacerCheckpoint,
    load_checkpoint,
    netlist_signature,
    save_checkpoint,
)
from .config import PlacerConfig, STANDARD_K
from .forces import CellForces, ForceCalculator
from .health import HealthGuard, _FAULT_HOOKS
from .linearization import linearization_factors
from .quadratic import QuadraticSystem
from .solver import solve_with_recovery

#: Conjugate-gradient termination: the relative residual every system is
#: finally solved to, and the iteration cap per solve.
CG_TOL = 1e-7
CG_MAX_ITER = 1000
#: Start of the adaptive tolerance schedule (see
#: :meth:`KraftwerkPlacer._cg_tolerance`): the residual the systems are
#: solved to while the density is fully uneven.
CG_TOL_LOOSE = 1e-5
#: Stopping rule (Section 4.2): no empty square larger than this multiple
#: of the average cell area ...
STOP_EMPTY_SQUARE_CELLS = 4.0
#: ... and at most this fraction of the movable area above 100 % bin
#: capacity, so the iteration does not stop while hole-free but still
#: locally piled up.
STOP_OVERFLOW_FRACTION = 0.45
#: A run stops unconverged once its best stop score is this many
#: transformations old (and the run at least twice as long).
STALL_ITERATIONS = 30
#: Hold mode: share of the accumulated density force kept per
#: transformation.
KICK_MEMORY = 0.7
#: Hold mode: the kick response's tether and the re-solve's spread pin,
#: as multiples of the mean matrix diagonal.  A weaker pin lets the wire
#: length pull harder, at the cost of more transformations.
RESPONSE_TETHER = 0.05
SPREAD_PIN = 0.15

# Hook signatures: called before each transformation.
NetWeightHook = Callable[[int, Placement], Optional[np.ndarray]]
ExtraDemandHook = Callable[[int, Placement], Optional[np.ndarray]]
IterationHook = Callable[["IterationStats", Placement], None]


@dataclass(frozen=True)
class IterationStats:
    """Diagnostics for one placement transformation.

    Frozen and free of live solver state, so histories pickle cleanly and
    cross process boundaries (the batch engine ships them back from worker
    processes) and checkpoint round-trips cannot drift.
    """

    iteration: int
    # HPWL and strongest sampled force are *observability* quantities: the
    # iteration itself never consumes them, so they are computed only when
    # someone reads them (verbose, an iteration_hook, or a deadline that
    # needs best-so-far tracking) and are NaN otherwise.  A telemetry
    # recorder alone does not count: it records spans, not these columns.
    # The final result's HPWL is always available on demand through
    # :attr:`PlacementResult.hpwl_m`.
    hpwl_m: float
    empty_square_ratio: float  # largest empty square area / avg cell area
    overflow_fraction: float  # demand above bin capacity / movable area
    max_force: float
    force_scale: float
    cg_iterations: int
    seconds: float
    # Recovery-ladder rungs taken by this transformation's solves (0 on a
    # healthy transformation).
    recovery_escalations: int = 0


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of a placement run.

    A frozen value object: coordinates, accumulated forces, per-iteration
    history and summary scalars only — no solver handles, open files or
    telemetry recorders — so results pickle cleanly across process
    boundaries (the parallel batch engine relies on this) and can be
    cached or compared without aliasing surprises.
    """

    placement: Placement
    converged: bool
    iterations: int
    history: List[IterationStats] = field(default_factory=list)
    forces: Tuple[np.ndarray, np.ndarray] = (np.zeros(0), np.zeros(0))
    seconds: float = 0.0
    # True when the wall-clock deadline cut the run short; the placement
    # is then the best feasible iterate seen, not the last one.
    timed_out: bool = False
    # Total recovery-ladder rungs taken across the run (0 when healthy).
    recovery_escalations: int = 0

    @property
    def hpwl_m(self) -> float:
        return hpwl_meters(self.placement)


def _stop_score(stats: IterationStats) -> float:
    """How far an iterate is from the stopping rule (``<= 1`` meets it)."""
    return max(
        stats.empty_square_ratio / STOP_EMPTY_SQUARE_CELLS,
        stats.overflow_fraction / STOP_OVERFLOW_FRACTION,
    )


class KraftwerkPlacer:
    """Force-directed global placer for one netlist on one region."""

    def __init__(
        self,
        netlist: Netlist,
        region: PlacementRegion,
        config: Optional[PlacerConfig] = None,
        telemetry=None,
    ):
        if netlist.num_movable == 0:
            raise ValueError("netlist has no movable cells")
        self.netlist = netlist
        self.region = region
        self.config = config or PlacerConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Resolve the array backend up front so a requested-but-missing
        # accelerator fails at construction, not mid-run.
        self.backend = resolve_backend(self.config.backend)
        if self.config.net_model == "b2b":
            from .b2b import B2BSystem

            self.system = B2BSystem(netlist)
        else:
            self.system = QuadraticSystem(
                netlist, clique_threshold=self.config.clique_threshold
            )
        self.force_calc = ForceCalculator(
            netlist, region, telemetry=self.telemetry, backend=self.backend
        )
        # Linearization span guard: roughly one cell width, so coincident
        # cells are not welded together by quasi-infinite 1/span weights.
        mean_width = (
            float(netlist.widths[netlist.movable_indices].mean())
            if netlist.num_movable
            else 1.0
        )
        self._gamma = max(1e-6, mean_width, 0.01 * min(region.width, region.height))
        # Hot-loop reuse state (reset at the start of every place() call):
        # previous hold-step responses for CG warm starts, and the demand
        # map computed by the convergence statistics, which doubles as the
        # next transformation's density input.
        self._warm: Dict[str, np.ndarray] = {}
        self._demand_cache: Optional[Tuple[Placement, np.ndarray]] = None
        # The health guard every transformation runs, and the current
        # run's recovery-ladder escalation counter.
        self._guard = HealthGuard(region, telemetry=self.telemetry)
        self._escalations = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def initial_placement(self) -> Placement:
        """All cells at the region center with tiny symmetry-breaking jitter."""
        placement = Placement.at_center(self.netlist, self.region)
        rng = np.random.default_rng(self.config.seed)
        movable = self.netlist.movable_indices
        jitter = 1e-3 * min(self.region.width, self.region.height)
        placement.x[movable] += rng.uniform(-jitter, jitter, movable.size)
        placement.y[movable] += rng.uniform(-jitter, jitter, movable.size)
        return placement

    def place(
        self,
        initial: Optional[Placement] = None,
        initial_forces: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        net_weight_hook: Optional[NetWeightHook] = None,
        extra_demand_hook: Optional[ExtraDemandHook] = None,
        iteration_hook: Optional[IterationHook] = None,
        max_iterations: Optional[int] = None,
        resume_from: Optional[Union[PlacerCheckpoint, str, Path]] = None,
    ) -> PlacementResult:
        """Run the iterative algorithm to convergence.

        Hooks make the placer "generic" in the paper's sense: a
        ``net_weight_hook`` supplies timing weights (Section 5), an
        ``extra_demand_hook`` supplies congestion/heat demand maps, and an
        ``iteration_hook`` observes progress (e.g. to record trade-off
        curves).  ``initial``/``initial_forces`` resume from a previous
        equilibrium for ECO flows.

        ``resume_from`` (a :class:`~repro.core.checkpoint.PlacerCheckpoint`
        or a path to one) continues an interrupted run bit-identically:
        positions, accumulated forces, warm-start state, history, and the
        iteration counter are restored, so the resumed trajectory matches
        the uninterrupted one exactly.
        """
        cfg = self.config
        limit = max_iterations if max_iterations is not None else cfg.max_iterations
        n_mov = self.netlist.num_movable
        signature = netlist_signature(self.netlist)
        history: List[IterationStats] = []
        best: Optional[Dict] = None
        start_iter = 0
        prior_seconds = 0.0

        if resume_from is not None:
            ckpt = (
                resume_from
                if isinstance(resume_from, PlacerCheckpoint)
                else load_checkpoint(resume_from)
            )
            if ckpt.signature and ckpt.signature != signature:
                raise ValueError(
                    f"checkpoint was taken for {ckpt.signature!r}, not this "
                    f"netlist ({signature!r})"
                )
            placement = Placement(self.netlist, ckpt.x, ckpt.y)
            e_x = np.asarray(ckpt.e_x, dtype=np.float64).copy()
            e_y = np.asarray(ckpt.e_y, dtype=np.float64).copy()
            self._warm = {k: v.copy() for k, v in ckpt.warm.items()}
            # Snapshots from older versions may carry history columns
            # that IterationStats no longer has (``phase_seconds``).
            known = IterationStats.__dataclass_fields__
            history = [
                IterationStats(**{k: v for k, v in h.items() if k in known})
                for h in ckpt.history
            ]
            best = dict(ckpt.best) if ckpt.best is not None else None
            start_iter = ckpt.iteration
            prior_seconds = ckpt.elapsed_seconds
        else:
            placement = (
                initial.copy() if initial is not None else self.initial_placement()
            )
            if initial_forces is not None:
                e_x = np.asarray(initial_forces[0], dtype=np.float64).copy()
                e_y = np.asarray(initial_forces[1], dtype=np.float64).copy()
                if e_x.shape != (n_mov,) or e_y.shape != (n_mov,):
                    raise ValueError(
                        "initial forces must have one entry per movable cell"
                    )
            else:
                e_x = np.zeros(n_mov)
                e_y = np.zeros(n_mov)
            self._warm = {}

        anchor = self._anchor_weight()
        center = self.region.bounds.center
        self._demand_cache = None
        converged = False
        timed_out = False
        tel = self.telemetry
        guard = self._guard
        self._escalations = 0
        deadline = cfg.deadline_seconds
        # HPWL and max-force are observability-only (see IterationStats):
        # skip them when nobody reads them.  A deadline counts as reading
        # because best-so-far tracking ranks iterates by HPWL.
        observe = (
            cfg.verbose or iteration_hook is not None or deadline is not None
        )
        place_span = tel.span("place")
        place_span.__enter__()
        t_start = time.perf_counter()

        try:
            for m in range(start_iter, limit):
                if _FAULT_HOOKS:
                    hook = _FAULT_HOOKS.get("iteration")
                    if hook is not None:
                        hook(m)
                if deadline is not None and (
                    prior_seconds + time.perf_counter() - t_start >= deadline
                ):
                    timed_out = True
                    tel.add("deadline_exceeded", 1)
                    break
                t0 = time.perf_counter()
                escalations_before = self._escalations
                with tel.span("iteration"):
                    weights = (
                        net_weight_hook(m, placement) if net_weight_hook else None
                    )
                    extra = (
                        extra_demand_hook(m, placement) if extra_demand_hook else None
                    )

                    with tel.span("assemble"):
                        system = self._assemble(placement, weights, anchor, center)
                        stiffness = np.asarray(system.Ax.diagonal())[
                            : self.system.n_movable
                        ]
                    # The statistics phase of the previous transformation
                    # already rasterized this exact placement object; the
                    # raw demand map is independent of extra_demand, which
                    # DensityModel.compute folds in afterwards.
                    cached_demand = None
                    if (
                        self._demand_cache is not None
                        and self._demand_cache[0] is placement
                    ):
                        cached_demand = self._demand_cache[1]
                    forces = self.force_calc.compute(
                        placement, K=cfg.K, extra_demand=extra,
                        stiffness=stiffness, demand=cached_demand,
                    )
                    guard.check_density(forces.density.density, m)
                    guard.check_field(forces.field.fx, forces.field.fy, m)
                    guard.check_forces(forces.fx, forces.fy, m)
                    if cfg.force_mode == "accumulate":
                        e_x += forces.fx
                        e_y += forces.fy
                    elif cfg.force_mode == "hold":
                        # Decaying accumulation (the paper's e <- e + f with a
                        # leak): a persistently overlapping cluster keeps
                        # gathering outward pressure until it separates, while
                        # resolved regions forget their old forces instead of
                        # oscillating.
                        e_x = KICK_MEMORY * e_x + forces.fx
                        e_y = KICK_MEMORY * e_y + forces.fy
                    else:  # "replace" has no memory
                        e_x = forces.fx.copy()
                        e_y = forces.fy.copy()

                    placement, cg_iters = self._solve(
                        placement, system, e_x, e_y,
                        unevenness=forces.unevenness, anchor=anchor,
                        iteration=m,
                    )

                    with tel.span("stats"):
                        ratio, overflow = self._distribution_state(placement)

                stats = IterationStats(
                    iteration=m,
                    hpwl_m=hpwl_meters(placement) if observe else float("nan"),
                    empty_square_ratio=ratio,
                    overflow_fraction=overflow,
                    max_force=forces.max_magnitude() if observe else float("nan"),
                    force_scale=forces.scale,
                    cg_iterations=cg_iters,
                    seconds=time.perf_counter() - t0,
                    recovery_escalations=self._escalations - escalations_before,
                )
                history.append(stats)
                if deadline is not None:
                    best = self._track_best(best, stats, placement, e_x, e_y)
                if cfg.checkpoint_path is not None and (
                    (m + 1) % cfg.checkpoint_every == 0 or m + 1 == limit
                ):
                    save_checkpoint(
                        cfg.checkpoint_path,
                        PlacerCheckpoint(
                            iteration=m + 1,
                            x=placement.x,
                            y=placement.y,
                            e_x=e_x,
                            e_y=e_y,
                            warm=self._warm,
                            history=[asdict(s) for s in history],
                            best=best,
                            signature=signature,
                            elapsed_seconds=prior_seconds
                            + time.perf_counter() - t_start,
                            config=cfg.to_dict(),
                        ),
                    )
                if cfg.verbose:
                    print(
                        f"[kraftwerk {self.netlist.name}] it={m} "
                        f"hpwl={stats.hpwl_m:.4f}m empty={ratio:.1f} "
                        f"ovf={overflow:.2f} cg={cg_iters}"
                    )
                if iteration_hook:
                    iteration_hook(stats, placement)
                if (
                    m + 1 >= cfg.min_iterations
                    and ratio <= STOP_EMPTY_SQUARE_CELLS
                    and overflow <= STOP_OVERFLOW_FRACTION
                ):
                    converged = True
                    break
                # Stall detection: the criteria can sit just above threshold
                # when springs and forces balance; stop rather than spin.
                score = [_stop_score(s) for s in history]
                if (
                    len(history) >= 2 * STALL_ITERATIONS
                    and min(score[-STALL_ITERATIONS:]) > min(score)
                ):
                    break

        finally:
            place_span.__exit__(None, None, None)
        if timed_out and best is not None:
            # Return the lowest-HPWL feasible iterate seen, never a worse
            # or non-finite one (the last iterate may be mid-kick).
            placement = Placement(self.netlist, best["x"], best["y"])
            e_x = best["e_x"].copy()
            e_y = best["e_y"].copy()
        return PlacementResult(
            placement=placement,
            converged=converged,
            iterations=len(history),
            history=history,
            forces=(e_x, e_y),
            seconds=time.perf_counter() - t_start,
            timed_out=timed_out,
            recovery_escalations=self._escalations,
        )

    @staticmethod
    def _track_best(
        best: Optional[Dict],
        stats: IterationStats,
        placement: Placement,
        e_x: np.ndarray,
        e_y: np.ndarray,
    ) -> Optional[Dict]:
        """Best-so-far: prefer distribution feasibility, then lowest HPWL.

        The ranking key clamps the distribution score at 1.0, so every
        iterate that meets the stopping criteria ties on feasibility and
        the lowest HPWL among them wins; infeasible iterates are ranked by
        how close they are to feasible.  Only finite iterates qualify.
        """
        if not (
            np.isfinite(placement.x).all()
            and np.isfinite(placement.y).all()
            and np.isfinite(stats.hpwl_m)
        ):
            return best
        score = _stop_score(stats)
        key = (max(score, 1.0), stats.hpwl_m)
        if best is not None and key >= (max(best["score"], 1.0), best["hpwl_m"]):
            return best
        return {
            "score": score,
            "hpwl_m": stats.hpwl_m,
            "x": placement.x.copy(),
            "y": placement.y.copy(),
            "e_x": e_x.copy(),
            "e_y": e_y.copy(),
        }

    # ------------------------------------------------------------------
    # One placement transformation
    # ------------------------------------------------------------------
    def _assemble(
        self,
        placement: Placement,
        net_weights: Optional[np.ndarray],
        anchor: float,
        center: Tuple[float, float],
    ):
        if self.config.net_model == "b2b":
            return self.system.assemble_at(
                placement,
                net_weights=net_weights,
                anchor_weight=anchor,
                anchor_xy=center,
            )
        if self.config.linearize:
            lin_x, lin_y = linearization_factors(placement, gamma=self._gamma)
        else:
            lin_x = lin_y = None
        return self.system.assemble(
            net_weights=net_weights,
            lin_x=lin_x,
            lin_y=lin_y,
            anchor_weight=anchor,
            anchor_xy=center,
        )

    def _cg(self, A, b, x0, tol, iteration: int):
        """One linear solve, through the recovery ladder.

        The happy path of :func:`solve_with_recovery` is exactly one
        :func:`~repro.core.solver.conjugate_gradient` call — same warm
        start, same tolerance, bit-identical result — so the ladder costs
        nothing until a solve actually fails.
        """
        result = solve_with_recovery(
            A, b, x0=x0, tol=tol, strict_tol=CG_TOL,
            max_iter=CG_MAX_ITER, telemetry=self.telemetry,
            iteration=iteration, backend=self.backend,
        )
        self._escalations += len(result.escalations)
        return result

    def _solve(
        self,
        placement: Placement,
        system,
        e_x: np.ndarray,
        e_y: np.ndarray,
        unevenness: float = 1.0,
        anchor: float = 0.0,
        iteration: int = 0,
    ) -> Tuple[Placement, int]:
        cfg = self.config
        tel = self.telemetry
        fx, fy = self.system.forces_to_vars(e_x, e_y)
        x0, y0 = self.system.vars_from_placement(placement)
        tol = self._cg_tolerance(unevenness)
        if cfg.force_mode == "hold":
            # _hold_step opens its own "hold" (kick response) and "solve"
            # (wire-length re-optimization) spans, so both phases show up
            # side by side in the iteration breakdown.
            new_x, new_y, cg_iters = self._hold_step(
                system, x0, y0, fx, fy, unevenness, anchor, tol,
                iteration=iteration,
            )
        else:
            with tel.span("solve"):
                rx = self._cg(system.Ax, system.bx + fx, x0, tol, iteration)
                ry = self._cg(system.Ay, system.by + fy, y0, tol, iteration)
                new_x, new_y, cg_iters = rx.x, ry.x, rx.iterations + ry.iterations
        n = self.system.n_movable
        self._guard.check_solution(new_x[:n], new_y[:n], iteration)
        new_placement = self.system.placement_from_vars(new_x, new_y, placement)
        new_placement.clamp_to_region(self.region)
        return new_placement, cg_iters

    def _cg_tolerance(self, unevenness: float) -> float:
        """Adaptive CG tolerance: loose while spreading, tight near the end.

        Early transformations move every cell by a sizable fraction of the
        chip, so solving their systems to ``CG_TOL`` buys nothing; the
        density kick of the next step dwarfs the residual.  The tolerance
        interpolates geometrically from ``CG_TOL_LOOSE`` (fully uneven
        density, the start) down to ``CG_TOL`` (settled density, where the
        converged placement must be resolved exactly).
        """
        t = min(1.0, max(0.0, unevenness))
        return float(CG_TOL * (CG_TOL_LOOSE / CG_TOL) ** t)

    def _hold_step(
        self,
        system,
        x0: np.ndarray,
        y0: np.ndarray,
        fx: np.ndarray,
        fy: np.ndarray,
        unevenness: float,
        anchor: float = 0.0,
        tol: float = CG_TOL,
        iteration: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """One transformation in hold mode.

        The spread target is ``p_cur + alpha * u``, where
        ``u = (A + mu I)^-1 f`` is the tethered displacement response to
        the kick and ``alpha`` rescales it so the largest *actual* step
        equals the target ``unevenness * K (W + H)`` (capped at a fraction
        of the region).  Forces excite the near-rigid collective modes of
        the spring system (only pads resist a coherent drift of a whole
        clump), so bounding the response rather than the force is the only
        way to control the step robustly.

        The new placement is then the solution of the full spring system
        with a pseudo-spring (:data:`SPREAD_PIN` times the mean matrix
        diagonal, scaled by ``K``) pinning every variable to its spread
        target.
        """
        cfg = self.config
        tel = self.telemetry
        cg_iters = 0
        with tel.span("hold"):
            # Displacement response to the kick alone.  Each cell is
            # additionally tethered to its current position (the mu*I term):
            # without it the kick pours into the near-rigid collective modes
            # of the spring system (a whole clump drifting is nearly free
            # when only pads hold it), the raw response explodes, and the
            # rescaled step degenerates to zero.  The tether localizes the
            # response, exactly like the fixed-point move springs of
            # follow-up force-directed placers.
            #
            # The shifted systems reuse the assembled matrices' sparsity
            # pattern (shifted_x/shifted_y rewrite one shared buffer per
            # axis), so each axis is solved before the next shift of that
            # axis is requested.  The solves warm-start from the previous
            # transformation's response: the density field changes slowly
            # between steps, so the old response is an excellent initial
            # iterate.
            diag_mean = float(system.Ax.diagonal().mean())
            mu = RESPONSE_TETHER * diag_mean
            ru = self._cg(
                system.shifted_x(mu), fx, self._warm.get("response_x"),
                tol, iteration,
            )
            rv = self._cg(
                system.shifted_y(mu), fy, self._warm.get("response_y"),
                tol, iteration,
            )
            self._warm["response_x"] = ru.x
            self._warm["response_y"] = rv.x
            cg_iters += ru.iterations + rv.iterations
            step = np.hypot(ru.x, rv.x)
            max_step = float(step.max()) if step.size else 0.0
            target = unevenness * self.config.K * self.region.half_perimeter
            # A step cannot usefully exceed a fraction of the region: larger
            # targets (e.g. the fast mode's K = 1.0 on a small die) would
            # throw cells across the chip and oscillate instead of
            # converging faster.
            target = min(
                target, 0.35 * min(self.region.width, self.region.height)
            )
            alpha = target / max_step if max_step > 0.0 else 0.0

            spread_x = x0 + alpha * ru.x
            spread_y = y0 + alpha * rv.x

        # Re-optimize wire length around the spread targets: solve the full
        # spring system with an extra pseudo-spring pinning every variable
        # softly to its spread position.  This is the step that lets the
        # quadratic objective keep refining wire length *while* the density
        # forces distribute the cells; with the pin alone (no re-solve) the
        # placement would merely diffuse and never recover netlist order.
        # K couples into the pin strength: the fast mode takes bigger density
        # steps *and* holds them more firmly against the springs.  The pin
        # must also dominate the center anchor: for sparsely connected (or
        # netless) systems the anchor is the whole diagonal, and a weaker
        # pin would let it pull every step most of the way back to center.
        with tel.span("solve"):
            pin = SPREAD_PIN * (cfg.K / STANDARD_K) * diag_mean
            pin = max(pin, 10.0 * anchor)
            rx = self._cg(
                system.shifted_x(pin), system.bx + pin * spread_x, spread_x,
                tol, iteration,
            )
            ry = self._cg(
                system.shifted_y(pin), system.by + pin * spread_y, spread_y,
                tol, iteration,
            )
            cg_iters += rx.iterations + ry.iterations
            return rx.x, ry.x, cg_iters

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _anchor_weight(self) -> float:
        # Without fixed cells the system is singular; anchor harder then.
        return 1e-3 if self.netlist.num_fixed == 0 else 1e-6

    def _distribution_state(self, placement: Placement) -> Tuple[float, float]:
        """(empty-square ratio, overflow fraction) of the placement.

        The first is the paper's Section 4.2 quantity (largest empty square
        area over average cell area); the second measures remaining pile-ups
        (demand above 100 % bin capacity over total movable area).
        """
        model = self.force_calc.density_model
        demand = model.demand_map(placement)
        # Both statistics depend only on the raw demand map, which is also
        # exactly what the next transformation's density phase needs for
        # this placement — cache it instead of rasterizing twice.
        self._demand_cache = (placement, demand)
        grid = model.grid
        side = largest_empty_square_side(
            demand, min(grid.dx, grid.dy), tol_area=1e-9 * grid.bin_area
        )
        ratio = side * side / self.netlist.average_movable_area()
        overflow = float(
            np.maximum(demand - grid.bin_area, 0.0).sum()
        ) / max(self.netlist.movable_area(), 1e-12)
        return ratio, overflow

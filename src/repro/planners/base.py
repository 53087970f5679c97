"""The planner base class: reservation plumbing, timing, shared helpers.

Every algorithm in the paper's evaluation (NTP, LEF, ILP, ATP, EATP) shares
the same skeleton: a *selection* step that decides which racks to fulfil
now, and a *path-finding* step that routes robots conflict-free.  The base
class owns everything common — the reservation structure, the heuristic
cache, STC/PTC accounting, memory introspection, and the
:class:`~repro.pathfinding.pipeline.FallbackChain` that plans every leg
over them — so each subclass is exactly its selection (and, for EATP, its
path-finding structures).

Timing contract: :meth:`Planner.plan` times each selection and every leg
is planned through ``self._plan_leg_timed()``, which times its path
searches; the simulator reads the accumulated totals for the Fig. 11
experiments.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional

from ..config import PlannerConfig
from ..errors import PlanningError
from ..pathfinding import _kernel
from ..pathfinding.cache import ShortestPathCache
from ..pathfinding.free_flow import FreeFlowPathCache
from ..pathfinding.heuristics import HeuristicFieldCache
from ..pathfinding.paths import Path
from ..pathfinding.pipeline import (FASTPATH_AUDIT_REJECT, FASTPATH_MISS,
                                    FASTPATH_OFF, FASTPATH_RESCUE,
                                    TIER_FREE_FLOW, TIER_FULL, FallbackChain,
                                    LegPlan)
from ..pathfinding.reservation import ReservationTable
from ..pathfinding.spatiotemporal_graph import (ShardedSpatiotemporalGraph,
                                                SpatiotemporalGraph)
from ..types import Cell, Tick, manhattan
from ..warehouse.entities import Rack, Robot
from ..warehouse.state import WarehouseState
from .scheme import Assignment, PlanningScheme


@dataclass
class PlannerStats:
    """Accumulated efficiency counters (the paper's STC / PTC inputs).

    The ``legs_*`` trio is the tier histogram of the planning
    pipeline: every planned leg lands in exactly one bucket
    (``legs_free_flow + legs_full + legs_wait == legs_planned``), and
    ``horizon_replans`` counts the continuation legs the simulator
    requested when a partial (wait) leg ran out.  The fast-path trio is
    tier 0's own accounting:
    ``legs_free_flow`` are the hits, ``fastpath_audit_rejects`` counts
    candidates a reservation conflict sent to the full search, and
    ``fastpath_misses`` counts legs where no auditable candidate existed
    (unreachable goal, a declining finisher walk).  Tier-0 legs run no
    search, so ``search_expansions`` / ``search_peak_open`` only
    accumulate over the legs that actually searched.  Which kernel
    served is one run-wide answer,
    :func:`~repro.pathfinding.st_astar.search_kernel_name`, so no counter
    repeats it per operation.
    """

    selection_seconds: float = 0.0
    planning_seconds: float = 0.0
    schemes_emitted: int = 0
    assignments_emitted: int = 0
    legs_planned: int = 0
    legs_free_flow: int = 0
    legs_full: int = 0
    legs_wait: int = 0
    fastpath_misses: int = 0
    fastpath_audit_rejects: int = 0
    horizon_replans: int = 0
    #: Legs whose full search stopped on ``max_search_expansions`` — the
    #: recorded degraded result; counted inside ``legs_wait``.
    budget_exhausted_legs: int = 0
    search_expansions: int = 0
    search_peak_open: int = 0
    cache_finished_legs: int = 0
    #: Conflicted descents served by the paper-scale wait-following
    #: rescue (tier 0.5) instead of the full search; counted inside
    #: ``legs_free_flow`` in the tier histogram.
    rescued_legs: int = 0
    #: Legs tier 0 attempted (fast path not ``off``), under the kernel
    #: switch of the time.  Only ``bench/``'s ``pipeline.tier0_hit_ratio``
    #: reads them, as their sum; they leave with ROADMAP 2 (f), like
    #: :meth:`Planner.close`.
    descents_compiled: int = 0
    descents_python: int = 0


class Planner(abc.ABC):
    """Abstract TPRW planner.

    Parameters
    ----------
    state:
        The live warehouse the planner serves.  Planners keep a reference:
        the TPRW problem re-plans every timestamp over the same world.
    config:
        Shared knobs (see :class:`~repro.config.PlannerConfig`).

    Subclasses implement :meth:`_select` — returning the racks to fulfil
    and, optionally, pre-matched robots — while the base class turns the
    selection into a conflict-free :class:`PlanningScheme`.
    """

    #: Human-readable name used by experiment reports (override).
    name: str = "planner"

    #: EATP's Sec. VI-B cache: its threshold triggers the finisher in
    #: both search tiers, which record their walks in it.
    cache: Optional[ShortestPathCache] = None

    #: High-water mark of :meth:`memory_bytes` read just before each
    #: purge in :meth:`advance` (the only operation that shrinks the
    #: structures).
    _peak_memory: int = 0

    def __init__(self, state: WarehouseState,
                 config: Optional[PlannerConfig] = None) -> None:
        self.state = state
        self.config = config if config is not None else PlannerConfig()
        self.grid = state.grid
        self.reservation: ReservationTable = self._make_reservation()
        #: Exact per-goal heuristic fields, shared by every leg to the
        #: same picker / rack home (one BFS per distinct goal, ever).
        self.heuristics = HeuristicFieldCache(self.grid)
        #: Tier-0 free-flow descents over those fields.
        self.free_flow = FreeFlowPathCache(self.grid, self.heuristics)
        self.stats = PlannerStats()
        #: The fallback chain every leg routes through.
        self.pipeline = self._build_pipeline()

    def _build_pipeline(self) -> FallbackChain:
        """The fallback chain over the planner's structures (not the
        planner: no reference cycle); :meth:`__setstate__` rebuilds it
        over the field caches it rebuilds."""
        return FallbackChain(
            grid=self.grid, reservation=self.reservation,
            heuristics=self.heuristics, config=self.config,
            free_flow=self.free_flow, cache=self.cache)

    # -- checkpointing -----------------------------------------------------

    #: Attributes dropped from checkpoint payloads and rebuilt on restore.
    #: The pipeline points at the field caches restore rebuilds; those
    #: (the heuristic fields and the tier-0 descents over them) are pure
    #: functions of the immutable grid (rebuilt fields are bit-identical,
    #: a field is up to 4 bytes a cell, and neither is charged to the MC
    #: metric), and the per-rack distances are a pure function of the
    #: fixed layout.  Everything that carries *state* — the reservation
    #: structure, the RNG, the learner, EATP's shortest-path cache (which
    #: IS charged to MC) — is pickled as-is.
    _UNPICKLED = ("pipeline", "heuristics", "free_flow", "_rack_distance")

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in self._UNPICKLED:
            state[name] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.heuristics = HeuristicFieldCache(self.grid)
        self.free_flow = FreeFlowPathCache(self.grid, self.heuristics)
        self.pipeline = self._build_pipeline()
        # A dropped cached property is rebuilt on first use.
        for name in self._UNPICKLED:
            if isinstance(getattr(type(self), name, None), cached_property):
                self.__dict__.pop(name, None)

    # -- extension points ------------------------------------------------------

    def _make_reservation(self) -> ReservationTable:
        """Reservation structure; ATP and the baselines use the ST graph.

        On a :attr:`~repro.warehouse.grid.Grid.paper_scale` floor the
        tiled variant replaces the global one — probe-for-probe identical
        answers (the equivalence suite pins it), but only the tiles a leg
        actually crosses are charged, which is what keeps the dense-layer
        family's modelled memory sane on the 541×302 floor.
        """
        if self.grid.paper_scale:
            return ShardedSpatiotemporalGraph()
        return SpatiotemporalGraph(self.grid)

    @abc.abstractmethod
    def _select(self, t: Tick, robots: List[Robot]) -> List["SelectionEntry"]:
        """Choose selectable racks (optionally with robots) to fulfil at
        ``t``; ``robots`` are the idle ones, ascending by id.

        Returns at most ``len(robots)`` entries; racks and robots must be
        unique across entries.  A selector reads the world's selectable
        racks in whichever form it walks, so a wake builds only that.
        """

    # -- the public planning API -----------------------------------------------

    def plan(self, t: Tick) -> PlanningScheme:
        """Emit ``U_t``: selection step then path-finding step."""
        scheme = PlanningScheme(timestamp=t)

        if not self.state.dispatchable():
            return scheme
        robots = self.state.idle_robots()

        started = time.perf_counter()
        entries = self._select(t, robots)
        self.stats.selection_seconds += time.perf_counter() - started

        if len(entries) > len(robots):
            raise PlanningError(
                f"{self.name} selected {len(entries)} racks for "
                f"{len(robots)} idle robots")

        # The per-rack loop of Alg. 1 / Alg. 3: closest idle robot, ST-A*
        # against the reservation structure, reserve, next — so each leg
        # is planned against every earlier leg's reservation.
        available = {robot.robot_id: robot for robot in robots}
        for entry in entries:
            robot, rack = entry.robot, entry.rack
            if robot is None:
                robot = self._closest_robot(rack, available.values())
            if robot.robot_id not in available:
                raise PlanningError(
                    f"{self.name} reused robot {robot.robot_id} at t={t}")
            del available[robot.robot_id]
            scheme.add(Assignment(
                robot_id=robot.robot_id, rack_id=rack.rack_id,
                pickup_path=self._plan_leg_timed(t, robot.location,
                                                 rack.home)))
        self.stats.schemes_emitted += 1
        self.stats.assignments_emitted += len(scheme)
        return scheme

    def plan_leg(self, t: Tick, source: Cell, goal: Cell) -> Path:
        """Plan a later mission leg (delivery or return) starting at ``t``.

        Reserved against — and inserted into — the planner's reservation
        structure like any pickup leg; counted in PTC.  The returned path
        may be *partial* (a wait-in-place, see
        :mod:`repro.pathfinding.pipeline`): it then ends short of
        ``goal`` and the simulator must call :meth:`continue_leg` from
        its last step when the robot gets there.
        """
        return self._plan_leg_timed(t, source, goal)

    def continue_leg(self, t: Tick, source: Cell, goal: Cell) -> Path:
        """Plan the continuation of a partial leg (a horizon replan).

        Identical to :meth:`plan_leg` except that it is counted as a
        horizon replan in the planner stats — the simulator calls it when
        a wait-out ends with the robot short of the leg's target.
        """
        self.stats.horizon_replans += 1
        return self._plan_leg_timed(t, source, goal)

    #: How many ticks between reservation purges (the paper executes the
    #: CDT update "periodically"; every tick would dominate small runs).
    PURGE_CADENCE = 32

    def advance(self, t_from: Tick, t_to: Tick) -> None:
        """Housekeeping for the span ``[t_from, t_to]`` of elapsed ticks.

        The simulator's wake contract: :meth:`plan` is invoked only at
        ticks where an idle robot and a selectable rack coexist (at every
        other tick it would return an empty scheme without touching the
        learner, the RNG, or the stats), and per-tick housekeeping is
        folded into this span-aware call — the event-driven engine jumps
        over quiet spans and hands the whole span to the planner at once
        (a single tick is ``advance(t, t)``).

        The base implementation performs the periodic reservation purge
        (the CDT "update" operation / the ST-graph layer eviction the
        paper calls eliminating passed timestamps) exactly as the
        per-tick loop did: purges fire at every multiple of
        :data:`PURGE_CADENCE` inside the span, and since
        ``purge_before`` with the latest floor subsumes the earlier
        floors, one call at the span's last cadence tick is equivalent.

        Subclasses that need genuinely per-tick state (none of the
        paper's five planners do — ATP's per-tick WAIT updates live in
        :meth:`plan`, which still runs at every tick where they can have
        an effect) must expand the span themselves.
        """
        last_cadence = (t_to // self.PURGE_CADENCE) * self.PURGE_CADENCE
        if last_cadence < t_from:
            return
        floor = last_cadence - self.config.reservation_horizon
        if floor > 0:
            self._peak_memory = max(self._peak_memory, self.memory_bytes())
            self.reservation.purge_before(floor)

    def memory_bytes(self) -> int:
        """Total live structure footprint — the Fig. 12 MC sample: the
        table's modelled bytes (arithmetic over its four store counts)
        plus the subclass extras, each O(1)."""
        return self.reservation.memory_bytes() + self._extra_memory_bytes()

    @property
    def peak_memory_bytes(self) -> int:
        """High-water mark of :meth:`memory_bytes` across every commit
        and wake so far.

        Only a purge shrinks a charged structure; between purges reserves,
        Q-table rows and cache pairs only add and the KNN index is static.
        So the peak is the largest value read just before a purge, or the
        current value.  The engine folds it into the run's recorded peak.
        """
        return max(self._peak_memory, self.memory_bytes())

    def _extra_memory_bytes(self) -> int:
        """Subclass hook for additional structures (cache, Q-table, KNN).

        Deliberately excludes the heuristic-field cache: it is a
        cross-cutting implementation acceleration applied identically to
        every planner, not one of the paper's per-algorithm structures,
        and folding it in would swamp the Fig. 12 MC comparison the
        metric exists to reproduce.  Inspect it separately via
        ``planner.heuristics.memory_bytes()``.
        """
        return 0

    # -- shared helpers -----------------------------------------------------------

    def _closest_robot(self, rack: Rack, robots: Iterable[Robot]) -> Robot:
        """The idle robot nearest to the rack's home (Alg. 1 line 6).

        ``robots`` come in ascending id order, so the first strict
        minimum of the Manhattan distance is the least ``(distance,
        robot_id)``."""
        home_x, home_y = rack.home
        best, best_distance = None, -1
        for robot in robots:
            x, y = robot.location
            distance = abs(x - home_x) + abs(y - home_y)
            if best is None or distance < best_distance:
                best, best_distance = robot, distance
        return best

    def _plan_leg_timed(self, t: Tick, source: Cell, goal: Cell) -> Path:
        started = time.perf_counter()
        try:
            leg = self.pipeline.plan_leg(t, source, goal)
        finally:
            self.stats.planning_seconds += time.perf_counter() - started
        self._commit_leg(leg)
        return leg.path

    def close(self) -> None:
        """Release run-scoped resources: none today (an empty hook).

        Kept only because the frozen ``bench/workloads.py`` calls it
        after every paper-floor drain; see ROADMAP's measurement-plane
        item for when it can go.
        """

    def _commit_leg(self, leg: LegPlan) -> None:
        """Fold a leg plan the chain has reserved, searches included, into
        stats."""
        stats = self.stats
        for search_stats in leg.search_stats:
            stats.search_expansions += search_stats.expansions
            stats.search_peak_open = max(stats.search_peak_open,
                                         search_stats.peak_open)
            if search_stats.cache_finished:
                stats.cache_finished_legs += 1
            if search_stats.budget_exhausted:
                stats.budget_exhausted_legs += 1
        stats.legs_planned += 1
        tier, fastpath = leg.tier, leg.fastpath
        if tier == TIER_FREE_FLOW:
            stats.legs_free_flow += 1
        elif tier == TIER_FULL:
            stats.legs_full += 1
        else:
            stats.legs_wait += 1
        if fastpath == FASTPATH_MISS:
            stats.fastpath_misses += 1
        elif fastpath == FASTPATH_AUDIT_REJECT:
            stats.fastpath_audit_rejects += 1
        elif fastpath == FASTPATH_RESCUE:
            stats.rescued_legs += 1
        if fastpath != FASTPATH_OFF:
            if _kernel.active is None:
                stats.descents_python += 1
            else:
                stats.descents_compiled += 1

    def picker_finish_time(self, picker_id: int) -> int:
        """f_p of Eq. 3 for one picker."""
        return self.state.pickers[picker_id].finish_time_estimate

    @cached_property
    def _rack_distance(self) -> List[int]:
        """d(l_r, l_p), rack home to its picker station, by rack id
        (racks and pickers never move), built on first use.  Manhattan,
        which equals the true grid distance on the open layouts this
        library generates but not on every obstructed one: on
        ``obstructed_floor``'s Pillars-48 one rack of 72 is further by
        breadth-first search."""
        pickers = self.state.pickers
        return [manhattan(rack.home, pickers[rack.picker_id].location)
                for rack in self.state.racks]


@dataclass
class SelectionEntry:
    """One selected rack, optionally pre-matched to a robot (EATP flip)."""

    rack: Rack
    robot: Optional[Robot] = None

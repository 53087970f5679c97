"""The leg-planning pipeline: tier 0, search, then wait — never an exception.

A leg is one timed path for one robot, planned against every earlier
leg's reservation (the paper's ST-A*, Sec. V-C, with EATP's finisher,
Sec. VI-B).  A failed search is an outcome, so the chain always answers:

0. **Free flow** — the greedy descent of the goal's exact field
   (:mod:`repro.pathfinding.free_flow`), audited in bulk: a clean one is
   the path the search would return, served without searching; with
   EATP's cache the finisher walks on from where the search would
   trigger it.  On a :attr:`~repro.warehouse.grid.Grid.paper_scale`
   floor a rejected descent is walked again with waits (the *rescue*,
   :func:`~repro.pathfinding.cache.follow_with_waits` at
   :data:`RESCUE_CAPS`), sparing a search over an O(distance²) plateau.
   A budget below ``n_cells`` turns tier 0 off.
1. **The full search** — ST-A* to the goal, this module's ``search``.
2. **Wait in place** — where the search fails on a reachable goal, hold
   the cell for its free run (committed) or, boxed in, sit tight
   uncommitted until it is free; the simulator asks for the rest.  A
   goal no path can ever reach raises
   :class:`~repro.errors.PathNotFoundError`.

**One call under the compiled switch.**  :meth:`FallbackChain.plan_leg`
plans each leg and reserves it.  Under the compiled switch it hands the
leg to the kernel's ``leg``: tier 0, the search where tier 0 made no
leg, then the insert of the leg it made.  It answers ``(verdict,
status, keys, tried, expansions, generated, peak_open)``.  The verdict
is tier 0's: 0 unreachable; 1 the descent audited clean; 2 the head
audited clean and the finisher walked on (a miss where the walk
declined); 3 a reject the rescue was off for or declined; 4 rescued.
The status is the search's (0 found, 4 finished by a walk, 1 out of
budget, 2 boxed in), -1 where no search ran.  ``tried`` lists the
finisher's start cells, tier 0's first, which the chain records in
EATP's cache.  The wait tier and the unreachable raise stay in python.
The python switch runs :meth:`FallbackChain._chain_leg` — tier 0
through :meth:`~repro.pathfinding.free_flow.FreeFlowPathCache.kernel_leg`
(same verdicts), then ``search`` — and commits its leg with
``reserve_path``; the one call is pinned against it, leg for leg.  Each
leg records its tier and tier 0's outcome (``FASTPATH_*``) and carries
its search's
:class:`~repro.pathfinding.st_astar.SearchStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..types import Cell, Tick
from ..warehouse.grid import Grid
from . import _kernel
from .cache import ShortestPathCache
from .free_flow import FreeFlowPathCache
from .heuristics import HeuristicFieldCache, _LazyManhattanFlat
from .paths import Path, packed_path
from .reservation import ReservationTable
from .st_astar import (SEARCH_BUDGET, SEARCH_EXHAUSTED, SearchOutcome,
                       SearchRequest, SearchStats, search)

#: ``(wait per step, total wait)`` caps of the wait-following rescue on
#: paper-scale floors: one blocked move may wait at most 16 ticks, the
#: whole leg at most 96 (the livelock guard of ``follow_with_waits``).
RESCUE_CAPS = (16, 96)

#: Replan backoff of the wait tier: the longest a robot whose search
#: failed holds position before the search is retried.  A robot whose own
#: cell stays free holds it (committed) for its free run up to this many
#: ticks; a boxed robot sits tight (uncommitted) until the first tick
#: within this many at which its cell is free again.
FALLBACK_WAIT_TICKS = 8

#: Fallback-chain tiers, in attempt order.
TIER_FREE_FLOW = "free_flow"
TIER_FULL = "full"
TIER_WAIT = "wait"
TIERS = (TIER_FREE_FLOW, TIER_FULL, TIER_WAIT)

#: Per-leg fast-path outcomes (tier 0's own accounting).
FASTPATH_HIT = "hit"                    #: tier 0 served the leg
FASTPATH_MISS = "miss"                  #: no auditable candidate produced
FASTPATH_AUDIT_REJECT = "audit_reject"  #: candidate hit a reservation
FASTPATH_RESCUE = "rescue"              #: audit hit, wait-following rescued
FASTPATH_OFF = "off"                    #: tier 0 not attempted (disabled)


@dataclass
class LegPlan:
    """One leg's plan: the executable path plus what was reserved.

    ``path`` reaches the goal unless ``tier`` is :data:`TIER_WAIT`: a
    *partial* leg the simulator continues from its last step (a horizon
    replan).  ``commit_path`` is what the chain reserved — ``path``, but
    a boxed wait's start step only.  ``search_stats`` are what the
    planner folds into its counters: the full or the failed search's, or
    the finisher record of a tier-0 walk.  ``fastpath`` is tier 0's outcome
    (``FASTPATH_*``), the input of the hit-rate counters.
    """

    path: Path
    tier: str
    commit_path: Path
    search_stats: Tuple[SearchStats, ...] = ()
    fastpath: str = FASTPATH_OFF


class FallbackChain:
    """The leg planner shared by every planner subclass: tier 0, then
    the full search, then a wait.

    Parameters
    ----------
    grid, reservation, heuristics, config:
        The owning planner's world, conflict structure, per-goal exact
        heuristic-field cache and :class:`~repro.config.PlannerConfig`.
    free_flow:
        The tier-0 descent cache.  Built fresh over ``grid`` and
        ``heuristics`` when not supplied (the planner base passes its
        own so the cache is introspectable per planner).
    cache:
        EATP's Sec. VI-B cache, or ``None``: the finisher trigger L of
        both search tiers, and where their walks are recorded.
    """

    def __init__(self, grid: Grid, reservation: ReservationTable,
                 heuristics: HeuristicFieldCache, config,
                 free_flow: Optional[FreeFlowPathCache] = None,
                 cache: Optional[ShortestPathCache] = None) -> None:
        self.grid = grid
        self.reservation = reservation
        self.heuristics = heuristics
        self.config = config
        self.cache = cache
        self.free_flow = (free_flow if free_flow is not None
                          else FreeFlowPathCache(grid, heuristics))
        #: ``(wait per step, total wait)`` handed to tier 0; zeros switch
        #: the rescue off.
        self.rescue_caps = RESCUE_CAPS if grid.paper_scale else (0, 0)

    def plan_leg(self, t: Tick, source: Cell, goal: Cell) -> LegPlan:
        """Plan one leg and reserve its :attr:`LegPlan.commit_path`: the
        kernel's one ``leg`` call under the compiled switch, else
        :meth:`_chain_leg`.

        A plan whenever the goal is spatially reachable at all; a goal no
        path can *ever* reach raises
        :class:`~repro.errors.PathNotFoundError` at once — waiting cannot
        conjure a corridor, and looping to ``max_ticks`` would bury it.
        """
        store = self.reservation.kernel_probe_spec()
        grid, budget = self.grid, self.config.max_search_expansions
        cache, height, n_cells = self.cache, grid.height, grid.n_cells
        trigger = 0 if cache is None else cache.threshold
        source_ci = source[0] * height + source[1]
        if store is None or budget < n_cells:
            if (grid.passable(goal) and 0 <= source_ci < n_cells
                    and self.heuristics.field(goal).flat[source_ci]
                    > n_cells):
                self._refuse_unreachable(t, source, goal, trigger)
            return self._reserved(self._chain_leg(t, source, goal))
        module = _kernel.active
        field = self.heuristics.field(goal)
        flat = field.flat
        # A lazy field is Manhattan's: every cell reaches the goal.
        lazy = isinstance(flat, _LazyManhattanFlat)
        if (not lazy and 0 <= source_ci < n_cells
                and flat[source_ci] > n_cells):
            self._refuse_unreachable(t, source, goal, trigger)
        verdict, status, keys, tried, expansions, generated, peak_open = (
            module.leg(grid.kernel_capsule(module), store, 1 if lazy else 2,
                       flat, source_ci, goal[0] * height + goal[1], t,
                       trigger, *self.rescue_caps, budget, grid.paper_scale))
        for ci in tried:  # record_starts by cell index, tier 0's first
            cache.record(divmod(ci, height), goal, flat[ci] + 1)
        if status < 0:  # tier 0 made the leg: no search ran
            return self._tier0_plan(verdict, packed_path(t, keys))
        fastpath = (FASTPATH_AUDIT_REJECT if verdict == 3
                    else FASTPATH_MISS)
        stats = SearchStats(expansions=expansions, generated=generated,
                            cache_finished=status == 4,
                            peak_open=peak_open, budget=budget)
        if keys is not None:
            path = packed_path(t, keys)
            return LegPlan(path=path, tier=TIER_FULL, commit_path=path,
                           search_stats=(stats,), fastpath=fastpath)
        grid.require_passable(source)  # what ``search`` refuses first
        grid.require_passable(goal)
        return self._reserved(self._failed_leg(t, field, SearchOutcome(
            SearchRequest(source, goal, t, budget, trigger),
            SEARCH_BUDGET if status == 1 else SEARCH_EXHAUSTED, None,
            stats), fastpath))

    def _refuse_unreachable(self, t: Tick, source: Cell, goal: Cell,
                            trigger: int) -> None:
        """Raise :class:`~repro.errors.PathNotFoundError`, before any
        search, for a ``source`` whose field value toward ``goal`` says
        no path reaches it; a blocked source is left to the tiers' own
        refusal."""
        if self.grid.passable(source):
            budget = self.config.max_search_expansions
            raise SearchOutcome(
                SearchRequest(source, goal, t, budget, trigger),
                SEARCH_EXHAUSTED, None, SearchStats(budget=budget)).error()

    def _reserved(self, leg: LegPlan) -> LegPlan:
        """``leg``, its :attr:`~LegPlan.commit_path` reserved."""
        self.reservation.reserve_path(leg.commit_path)
        return leg

    def _chain_leg(self, t: Tick, source: Cell, goal: Cell) -> LegPlan:
        """The chain in python, reserving nothing: tier 0, then
        :meth:`_searched_leg`."""
        leg, fastpath = self._free_flow_leg(t, source, goal)
        return leg or self._searched_leg(t, source, goal, fastpath)

    def _searched_leg(self, t: Tick, source: Cell, goal: Cell,
                      fastpath: str) -> LegPlan:
        """Tier 1, through the name the seed oracle patches, then the
        wait."""
        field, cache = self.heuristics.field(goal), self.cache
        outcome = search(self.grid, self.reservation, SearchRequest(
            source, goal, t, self.config.max_search_expansions,
            0 if cache is None else cache.threshold), field)
        if outcome.finisher_starts:
            cache.record_starts(goal, field, outcome.finisher_starts)
        if outcome.ok:
            return LegPlan(path=outcome.path, tier=TIER_FULL,
                           commit_path=outcome.path,
                           search_stats=(outcome.stats,), fastpath=fastpath)
        return self._failed_leg(t, field, outcome, fastpath)

    # -- tier 0: free-flow fast path -------------------------------------------

    def _free_flow_leg(self, t: Tick, source: Cell, goal: Cell):
        """Tier 0 of :meth:`_chain_leg`: ``(leg | None, outcome)`` from
        :meth:`~repro.pathfinding.free_flow.FreeFlowPathCache.kernel_leg`'s
        verdict.  A leg only where it is provably what tier 1 would
        return (:mod:`repro.pathfinding.free_flow`), under a budget that
        cannot stop the search before the goal pops (``n_cells``)."""
        if self.config.max_search_expansions < self.grid.n_cells:
            return None, FASTPATH_OFF
        cache = self.cache
        verdict, path, starts = self.free_flow.kernel_leg(
            self.reservation, t, source, goal,
            0 if cache is None else cache.threshold, self.rescue_caps)
        if starts:
            cache.record_starts(goal, self.heuristics.field(goal), starts)
        if path is None:
            # 0: tier 1 fails fast.  2, declined: the full search would
            # go on and may finish through a later walk off the descent.
            return None, (FASTPATH_AUDIT_REJECT if verdict == 3
                          else FASTPATH_MISS)
        leg = self._tier0_plan(verdict, path)
        return leg, leg.fastpath

    def _tier0_plan(self, verdict: int, path: Path) -> LegPlan:
        """The plan of a leg tier 0 served with ``verdict`` 1, 2 or 4:
        the finisher's record where it walked (positional: a leg's hot
        path)."""
        return LegPlan(path, TIER_FREE_FLOW, path, (SearchStats(
            0, 0, True, 0, self.config.max_search_expansions),)
            if verdict == 2 else (),
            FASTPATH_RESCUE if verdict == 4 else FASTPATH_HIT)

    # -- tier 2: reservation-aware wait in place ------------------------------

    def _failed_leg(self, t: Tick, field, outcome: SearchOutcome,
                    fastpath: str) -> LegPlan:
        """The wait after a failed search, or its error where the goal is
        unreachable regardless of reservations."""
        source = outcome.request.source
        if field(source) > self.grid.n_cells:
            raise outcome.error()
        is_free = self.reservation.is_free
        free_run = 0  # ticks the robot can legally hold ``source`` from t+1
        while free_run < FALLBACK_WAIT_TICKS and is_free(t + free_run + 1,
                                                         source):
            free_run += 1
        if free_run > 0:
            # Hold the cell for its conflict-free run (bounded by the
            # replan backoff) and commit the wait like any other path.
            path = commit_path = Path.waiting(source, t, free_run)
        else:
            # Boxed: committed traffic is planned straight through this
            # cell.  That overlap is a pre-existing modelling hole —
            # reservations never see parked robots, so the other robot's
            # plan already swept through this physically occupied cell
            # at planning time.  The robot stays put (it has nowhere
            # legal to go); commit only the start step and replan at the
            # first tick the cell is free — the soonest a legal plan can
            # exist.  Note the recorded wait path makes the pre-existing
            # overlap *visible* to path audits (`find_conflicts`), which
            # is deliberate: an idle robot hides the same co-occupancy
            # only because it records no path at all.
            path = Path.waiting(source, t, next(
                (delta for delta in range(1, FALLBACK_WAIT_TICKS)
                 if is_free(t + delta, source)), FALLBACK_WAIT_TICKS))
            commit_path = Path.waiting(source, t, 0)
        return LegPlan(path=path, tier=TIER_WAIT, commit_path=commit_path,
                       search_stats=(outcome.stats,), fastpath=fastpath)

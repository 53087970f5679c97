"""The leg-planning pipeline: search, then wait — never an exception.

Every planner's path-finding step used to be one unbounded spatiotemporal
A* call that could *throw* mid-run — on the paper-scale fleet ladder a
robot dispatched from a cell that other robots' committed paths sweep
through is boxed in (its own cell is reserved at ``t + 1`` and every
neighbouring move is a vertex or swap conflict), the open set dies, and
the whole experiment fell over with ``PathNotFoundError``.  This module
makes the call recoverable.  The paper's path finder is one thing —
ST-A* against a reservation structure (Sec. V-C), with EATP's cache
finisher hooked into it (Sec. VI-B) — and so is the chain:

1. **Full ST-A*** — the classic conflict-aware search to the goal,
   bit-identical to the seed whenever it succeeds, which on uncongested
   floors is always.
2. **Reservation-aware wait in place** — when the search fails on a goal
   the floor can reach (the robot is boxed in, or the expansion budget
   ran out), hold position: wait out the free run of the current cell
   (committed), or — when traffic is planned straight through the cell —
   sit tight uncommitted until the first tick the cell is probe-free,
   exactly as an *idle* robot (which is never reserved) already does.
   The leg is *partial*; the simulator asks for the continuation when
   the wait ends, and the search tries again against the traffic of
   that later tick.

Exhaustion therefore becomes a :class:`LegPlan` that says which tier
answered, never an exception escaping a run, and a leg whose search
stopped on its budget is counted (``PlannerStats.budget_exhausted_legs``)
with the failed search's :class:`~repro.pathfinding.st_astar.SearchStats`
riding on the wait leg.  Full-tier results are byte-identical to the
pre-pipeline behaviour, so runs that never needed the wait (the golden
traces, the engine-equivalence suites) are unchanged.

**Tier 0 — the free-flow fast path** — runs ahead of the whole chain:
extract the leg's free-flow shortest path by greedy descent on the cached
exact heuristic field (O(path length), tie-broken exactly like the full
search — see :mod:`repro.pathfinding.free_flow`), bulk-audit it against
the reservation structures (both in one call,
:meth:`~repro.pathfinding.free_flow.FreeFlowPathCache.kernel_leg`, whose
verdict tuple :meth:`FallbackChain._free_flow_leg` alone interprets), and
serve the leg without searching when the audit finds no conflict.  Any
hit — or any case tier 0 cannot prove byte-identical (tiny expansion
budgets, a declining cache finisher) — drops straight into the unchanged
tier-1 search, so the chain's observable behaviour is *provably*
unchanged: a fast-path leg is the byte-identical path tier 1 would have
produced, and every other leg still goes through tier 1.  Each planned
leg records its fast-path outcome (:data:`FASTPATH_HIT` /
:data:`FASTPATH_MISS` / :data:`FASTPATH_AUDIT_REJECT` /
:data:`FASTPATH_RESCUE` / :data:`FASTPATH_OFF`) for the planner's
hit-rate counters.

**Tier 0.5 — the wait-following rescue** — sits between the audit and
the full search *at paper scale only*: a descent whose audit hits a
reservation is walked again with waits inserted wherever the next move
conflicts (:func:`~repro.pathfinding.cache.follow_with_waits`, the
Sec. VI-B policy applied from the start cell — the walk EATP's finisher
takes from the cell where the search hands over, there with caps of 64
and 64).  O(path + waits) where
the full search the reject would otherwise fall into explores an
O(distance²) f-optimal plateau — on the paper-true 541×302 floor
hundreds of thousands of probes per leg, the cost wall behind the
paper's "too slow to execute" exclusion.  The rescued path is
conflict-free but need not match the search optimum, so off a
:attr:`~repro.warehouse.grid.Grid.paper_scale` floor the rescue stays
off and rejects fall into the byte-identical tier-1 search as before; it
also declines when the walk exceeds :data:`RESCUE_CAPS` or cannot even
hold position — congestion bad enough that the search tiers should
decide.  It runs inside the tier-0 call, where the probes are (the
native ``tier0_leg`` under the compiled kernel), and comes back as one
more verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..errors import PathNotFoundError
from ..types import Cell, Tick
from ..warehouse.grid import Grid
from .free_flow import FreeFlowPathCache
from .heuristics import HeuristicFieldCache
from .paths import Path
from .reservation import ReservationTable
# ``search`` is a re-export, not a use: the frozen ``bench/trace.py``
# shims ``pipeline.__dict__["search"]`` and dies with ``KeyError`` without
# the name.  It goes when ``bench/`` is next opened (ROADMAP item 3 (e)).
from .st_astar import SearchStats, search  # noqa: F401

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
    """One leg's plan: the executable path plus its commit instructions.

    Attributes
    ----------
    path:
        The timed path the mission executes.  It reaches the requested
        goal unless the tier is :data:`TIER_WAIT`: a wait is a *partial*
        leg that ends where it started, and the simulator asks for the
        continuation from its last step (the *horizon replan*).
    tier:
        Which chain tier produced the plan (:data:`TIER_FREE_FLOW`,
        :data:`TIER_FULL` or :data:`TIER_WAIT`).
    commit_path:
        What to insert into the reservation structure: ``path`` itself,
        except for a boxed wait, which holds a cell other robots' plans
        already cross and commits its start step only.
    search_stats:
        Stats the caller folds into its counters: the failed full
        search's on a wait leg (tier 1 absorbs its own on success), the
        synthetic finisher record on a tier-0 leg.
    fastpath:
        What tier 0 did for this leg (:data:`FASTPATH_HIT`,
        :data:`FASTPATH_MISS`, :data:`FASTPATH_AUDIT_REJECT`,
        :data:`FASTPATH_RESCUE` or :data:`FASTPATH_OFF`) — the input of
        the planner's fast-path hit-rate counters.
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
    full_search:
        Tier 1 as a callable ``(t, source, goal) -> Path`` raising
        :class:`~repro.errors.PathNotFoundError` on exhaustion.  Passed
        as a callable (not inlined) because it is the planner's historic
        ``_find_leg`` extension point — EATP's cache-aided variant and
        the frozen-seed benchmark patches all hook it.
    finisher_factory:
        ``goal -> (finisher, trigger)`` supplying the cache-aided
        finisher tier 0 hands its audited head to (EATP); ``(None, 0)``
        disables.
    free_flow:
        The tier-0 descent cache.  Built fresh over ``grid`` and
        ``heuristics`` when not supplied (the planner base passes its
        own so the cache is introspectable per planner).
    """

    def __init__(self, grid: Grid, reservation: ReservationTable,
                 heuristics: HeuristicFieldCache, config,
                 full_search: Callable[[Tick, Cell, Cell], Path],
                 finisher_factory: Callable[[Cell], tuple],
                 free_flow: Optional[FreeFlowPathCache] = None) -> None:
        self.grid = grid
        self.reservation = reservation
        self.heuristics = heuristics
        self.config = config
        self.full_search = full_search
        self.finisher_factory = finisher_factory
        self.free_flow = (free_flow if free_flow is not None
                          else FreeFlowPathCache(grid, heuristics))
        #: ``(wait per step, total wait)`` handed to tier 0; zeros switch
        #: the rescue off.
        self.rescue_caps = RESCUE_CAPS if grid.paper_scale else (0, 0)

    def plan_leg(self, t: Tick, source: Cell, goal: Cell) -> LegPlan:
        """Plan one leg through the chain.

        Always returns a plan when the goal is spatially reachable at
        all; a goal no path can *ever* reach (disconnected floor) still
        raises :class:`~repro.errors.PathNotFoundError` immediately —
        waiting and replanning cannot conjure a corridor, and looping
        until the simulator's ``max_ticks`` guard would bury the real
        error.
        """
        leg, fastpath = self._free_flow_leg(t, source, goal)
        if leg is not None:
            return leg
        try:
            path = self.full_search(t, source, goal)
            return LegPlan(path=path, tier=TIER_FULL, commit_path=path,
                           fastpath=fastpath)
        except PathNotFoundError as error:
            if self.heuristics.distance(source, goal) > self.grid.n_cells:
                raise  # unreachable regardless of reservations: fail fast
            failed = (error.stats,) if error.stats is not None else ()
        leg = self._wait_leg(t, source, failed)
        leg.fastpath = fastpath
        return leg

    # -- tier 0: free-flow fast path -------------------------------------------

    def _free_flow_leg(self, t: Tick, source: Cell, goal: Cell):
        """Try to serve the leg without searching.

        Returns ``(leg | None, outcome)``.  This is the one interpreter
        of the tier-0 verdict tuple :meth:`FreeFlowPathCache.kernel_leg
        <repro.pathfinding.free_flow.FreeFlowPathCache.kernel_leg>`
        answers from either kernel: 1 is a served leg, 2 hands the
        audited head to the finisher, 4 is a leg the rescue served, 3 a
        reject the rescue was off for or declined, 0 is a miss.

        Emits a plan only when the result is *provably* byte-identical to
        what tier 1 would return (see :mod:`repro.pathfinding.free_flow`):

        * the greedy descent exists and its audit finds no conflict — on
          a conflict-free descent the full search's FIFO plateau
          exploration reconstructs exactly this chain;
        * with a cache finisher in force (EATP), the finisher is invoked
          at the same ``(cell, tick)`` the full search would first
          trigger it — the first expanded node whose h-value enters the
          trigger band is the descent cell ``h == trigger`` (or the
          source when the whole leg is inside the band) — and only a
          returned tail with a conflict-free head is emitted;
        * the expansion budget provably cannot interrupt the full search
          before the goal pops (it is at least the plateau-size bound
          ``n_cells``); tiny test budgets disable tier 0 outright.
        """
        config = self.config
        if config.max_search_expansions < self.grid.n_cells:
            return None, FASTPATH_OFF
        verdict, path, finisher, __ = self.free_flow.kernel_leg(
            self.reservation, t, source, goal, self.finisher_factory,
            self.rescue_caps)
        if verdict == 0:
            # unreachable: tier 1 fails fast
            return None, FASTPATH_MISS
        if verdict == 3:
            return None, FASTPATH_AUDIT_REJECT
        fastpath = FASTPATH_RESCUE if verdict == 4 else FASTPATH_HIT
        search_stats: Tuple[SearchStats, ...] = ()
        if verdict == 2:
            # Only a head that audited clean reaches the finisher (see
            # ``kernel_leg`` on why the order matters to EATP's cache).
            tail = finisher(path.goal, path.end_time)
            if tail is None:
                # The full search would keep expanding past the first
                # trigger and may finish through a *later* finisher call
                # off the descent chain — not reproducible in O(d).
                return None, FASTPATH_MISS
            path = path.concat(tail)
            search_stats = (SearchStats(
                cache_finished=True, budget=config.max_search_expansions),)
        leg = LegPlan(path=path, tier=TIER_FREE_FLOW, commit_path=path,
                      search_stats=search_stats, fastpath=fastpath)
        return leg, fastpath

    # -- tier 2: reservation-aware wait in place ------------------------------

    def _wait_leg(self, t: Tick, source: Cell,
                  failed: Tuple[SearchStats, ...]) -> LegPlan:
        free_run = self._free_run(source, t)
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
            path = Path.waiting(source, t, self._first_free_wait(source, t))
            commit_path = Path.waiting(source, t, 0)
        return LegPlan(path=path, tier=TIER_WAIT, commit_path=commit_path,
                       search_stats=failed)

    def _free_run(self, source: Cell, t: Tick) -> int:
        """Ticks the robot can legally hold ``source`` starting at t+1."""
        is_free = self.reservation.is_free
        run = 0
        while run < FALLBACK_WAIT_TICKS and is_free(t + run + 1, source):
            run += 1
        return run

    def _first_free_wait(self, source: Cell, t: Tick) -> int:
        """Ticks until ``source`` is first probe-free again, at most the
        replan backoff."""
        is_free = self.reservation.is_free
        for delta in range(1, FALLBACK_WAIT_TICKS):
            if is_free(t + delta, source):
                return delta
        return FALLBACK_WAIT_TICKS

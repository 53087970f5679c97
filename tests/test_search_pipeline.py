"""The planning pipeline: search, then wait — tiers, commits, replans.

Covers the chain's contract end to end:

* ``search()`` returns :class:`SearchOutcome` failures instead of raising,
  and the outcome's :class:`PathNotFoundError` carries the search stats;
* the fallback chain answers every request with exactly one tier, with
  crafted dense-corridor fixtures exercising each tier;
* a failed search becomes a wait leg — committed over the cell's free
  run, uncommitted beyond its start step when the robot is boxed — and
  a budget hit is recorded with the failed search's stats;
* the event engine finishes partial legs through horizon replans.
"""

from __future__ import annotations

import pytest

from repro.config import PlannerConfig, SimulationConfig
from repro.errors import ConfigurationError, PathNotFoundError
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding._legacy import tier0_off_patch
from repro.pathfinding.cache import follow_with_waits
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.conflicts import find_conflicts
from repro.pathfinding.heuristics import HeuristicFieldCache
from repro.pathfinding import pipeline
from repro.pathfinding.paths import Path
from repro.pathfinding.pipeline import (TIER_FREE_FLOW, TIER_FULL, TIER_WAIT,
                                        FallbackChain)
from repro.pathfinding.spatiotemporal_graph import (ShardedSpatiotemporalGraph,
                                                    SpatiotemporalGraph)
from repro.pathfinding.st_astar import (SEARCH_BUDGET, SEARCH_COMPLETE,
                                        SEARCH_EXHAUSTED, SearchOutcome,
                                        SearchRequest, SearchStats,
                                        search, search_kernel_name,
                                        set_search_kernel)
from repro.planners.ntp import NaiveTaskPlanner
from repro.sim.engine import Simulation
from repro.sim.missions import Mission, MissionStage
from repro.warehouse.grid import Grid
from repro.workloads.datasets import make_mini


def corridor(length: int) -> Grid:
    """A single-file corridor of ``length`` cells along y=0."""
    return Grid(length, 1)


def blockade(table, cell, until: int) -> None:
    """Park a reservation on ``cell`` for every tick in [0, until]."""
    table.reserve_path(Path.waiting(cell, 0, until))


#: Kernel planes available here (the compiled one only when it builds).
KERNELS = ["python"] + (["compiled"] if build_and_load() is not None else [])


@pytest.fixture(params=KERNELS)
def kernel(request):
    """Run the test under one kernel plane, restoring the session's after."""
    previous = search_kernel_name()
    set_search_kernel(request.param)
    yield request.param
    set_search_kernel(previous)


def make_chain(grid: Grid, reservation, config: PlannerConfig,
               heuristics: HeuristicFieldCache = None) -> FallbackChain:
    """A fallback chain wired exactly as the planner base wires it."""
    if heuristics is None:
        heuristics = HeuristicFieldCache(grid)
    return FallbackChain(grid, reservation, heuristics, config)


class TestSearchOutcomes:
    def test_complete_outcome(self):
        grid = Grid(12, 10)
        outcome = search(grid, ConflictDetectionTable(),
                         SearchRequest(source=(0, 0), goal=(6, 4),
                                       start_time=0))
        assert outcome.ok and outcome.status == SEARCH_COMPLETE
        assert outcome.path.goal == (6, 4)
        assert outcome.stats.budget == 200_000

    def test_budget_outcome_returned_not_raised(self):
        grid = Grid(12, 10)
        outcome = search(grid, ConflictDetectionTable(),
                         SearchRequest(source=(0, 0), goal=(11, 9),
                                       start_time=0, max_expansions=3))
        assert not outcome.ok
        assert outcome.status == SEARCH_BUDGET
        assert outcome.path is None
        assert outcome.stats.expansions > 0
        assert outcome.stats.budget == 3

    def test_exhausted_outcome_when_boxed_in(self):
        grid = corridor(5)
        cdt = ConflictDetectionTable()
        for cell in [(1, 0), (2, 0), (3, 0)]:
            blockade(cdt, cell, until=6)
        outcome = search(grid, cdt,
                         SearchRequest(source=(2, 0), goal=(4, 0),
                                       start_time=0))
        assert outcome.status == SEARCH_EXHAUSTED
        assert outcome.stats.expansions == 1  # the start pops, nothing else

    def test_error_carries_the_stats(self):
        grid = Grid(12, 10)
        outcome = search(grid, ConflictDetectionTable(),
                         SearchRequest((0, 0), (11, 9), 0, max_expansions=3))
        assert outcome.status == SEARCH_BUDGET
        error = outcome.error()
        assert isinstance(error, PathNotFoundError)
        assert error.stats is outcome.stats
        assert error.stats.expansions == 4  # the pop that broke the budget
        assert error.stats.budget == 3
        assert error.stats.peak_open > 0
        # The diagnostics survive into the rendered message too.
        assert "expansions=4" in str(error)
        assert "budget=3" in str(error)


class TestTierOneIsTheChainsSearch:
    """Tier 1 is the chain's own search — ``pipeline.search`` in the
    python chain, inside the one ``leg`` call under the compiled switch:
    nothing is handed in, and every searched leg is one search."""

    def test_chain_plans_full_and_wait_legs_unaided(self, kernel):
        # A blockade on the descent sends the leg past tier 0 into the
        # full search, whose path the chain returns as is.
        grid = Grid(12, 10)
        table = ConflictDetectionTable()
        blockade(table, (4, 0), until=30)
        heuristics = HeuristicFieldCache(grid)
        chain = FallbackChain(grid, table, heuristics, PlannerConfig())
        reference = search(grid, table, SearchRequest((0, 0), (9, 0), 0),
                           heuristics.field((9, 0)))
        leg = chain.plan_leg(0, (0, 0), (9, 0))
        assert leg.tier == TIER_FULL
        assert leg.path.steps == reference.path.steps
        # the chain reserved the leg it returned
        assert not any(table.is_free(t, (x, y)) for t, x, y in leg.path.steps)
        (stats,) = leg.search_stats
        assert stats.expansions == reference.stats.expansions
        # A boxed robot's failed search becomes a wait leg.
        boxed = corridor(5)
        table = ConflictDetectionTable()
        for cell in [(1, 0), (2, 0), (3, 0)]:
            blockade(table, cell, until=6)
        leg = FallbackChain(boxed, table, HeuristicFieldCache(boxed),
                            PlannerConfig()).plan_leg(0, (2, 0), (4, 0))
        assert leg.tier == TIER_WAIT
        assert leg.path.steps == Path.waiting((2, 0), 0, 7).steps

    def test_every_searched_leg_is_one_pipeline_search_call(
            self, kernel, monkeypatch):
        from repro.pathfinding import _kernel
        from repro.planners import PLANNERS
        calls = []
        real_search = pipeline.search
        monkeypatch.setattr(
            pipeline, "search",
            lambda *args: calls.append(args[2]) or real_search(*args))
        if _kernel.active is not None:
            real_leg = _kernel.active.leg

            def leg(*args):
                answer = real_leg(*args)
                if answer[1] >= 0:  # its search status: a search ran
                    calls.append(args)
                return answer

            monkeypatch.setattr(_kernel.active, "leg", leg)
        for name in sorted(PLANNERS):
            calls.clear()
            state, items = make_mini(seed=3).build()
            planner = PLANNERS[name](state, PlannerConfig())
            Simulation(state, planner, items).run()
            stats = planner.stats
            assert calls, name  # every planner searches some leg here
            assert len(calls) == stats.legs_full + stats.legs_wait, name


class TestFallbackChain:
    def test_tier_free_flow_on_open_floor(self):
        # Tier 0 serves an uncongested leg without searching: greedy
        # descent plus a clean audit, byte-identical to the full search.
        grid = Grid(12, 10)
        cdt = ConflictDetectionTable()
        leg = make_chain(grid, cdt, PlannerConfig()).plan_leg(0, (0, 0),
                                                              (9, 7))
        assert leg.tier == TIER_FREE_FLOW
        assert leg.commit_path is leg.path
        assert leg.path.goal == (9, 7)

    def test_tier_full_on_open_floor(self, monkeypatch):
        # With tier 0 off, the same leg lands on the classic full tier
        # with the byte-identical path.
        grid = Grid(12, 10)
        fast = make_chain(grid, ConflictDetectionTable(),
                          PlannerConfig()).plan_leg(0, (0, 0), (9, 7))
        monkeypatch.setattr(*tier0_off_patch())
        leg = make_chain(grid, ConflictDetectionTable(),
                         PlannerConfig()).plan_leg(0, (0, 0), (9, 7))
        assert leg.tier == TIER_FULL
        assert leg.commit_path is leg.path
        assert leg.path.goal == (9, 7)
        assert fast.path.steps == leg.path.steps

    def test_tier_wait_boxed_commits_only_start(self):
        grid = corridor(5)
        cdt = ConflictDetectionTable()
        for cell in [(1, 0), (2, 0), (3, 0)]:
            blockade(cdt, cell, until=6)
        leg = make_chain(grid, cdt, PlannerConfig()).plan_leg(0, (2, 0),
                                                              (4, 0))
        assert leg.tier == TIER_WAIT
        # Waits precisely until the robot's cell is first free again.
        assert leg.path.steps == Path.waiting((2, 0), 0, 7).steps
        # Boxed wait: only the start step may be committed — the rest of
        # the wait overlaps traffic already reserved through the cell.
        assert leg.commit_path.steps == ((0, 2, 0),)
        # The open set died on the start pop: a failure, not a budget hit.
        (failed,) = leg.search_stats
        assert failed.expansions == 1 and not failed.budget_exhausted

    def test_boxed_wait_is_capped_by_fallback_wait_ticks(self, monkeypatch):
        grid = corridor(5)
        cdt = ConflictDetectionTable()
        for cell in [(1, 0), (2, 0), (3, 0)]:
            blockade(cdt, cell, until=40)
        for cap in (1, 3, 8):
            monkeypatch.setattr(pipeline, "FALLBACK_WAIT_TICKS", cap)
            leg = make_chain(grid, cdt, PlannerConfig()).plan_leg(
                0, (2, 0), (4, 0))
            assert leg.tier == TIER_WAIT
            assert leg.path.duration == cap  # the cell is free only at 41

    @pytest.mark.parametrize("make_table", [
        lambda grid: ConflictDetectionTable(),
        lambda grid: SpatiotemporalGraph(grid),
        lambda grid: ShardedSpatiotemporalGraph(2),
        lambda grid: ShardedSpatiotemporalGraph(0),
    ], ids=["cdt", "stgraph", "sharded-stgraph", "cell-tiled-stgraph"])
    def test_boxed_wait_reserves_one_vertex_no_edge(self, make_table, kernel):
        grid = corridor(5)
        table = make_table(grid)
        for cell in [(1, 0), (2, 0), (3, 0)]:
            table.reserve_path(Path.waiting(cell, 1, 5))

        def held():
            return {(t, x) for t in range(12) for x in range(5)
                    if not table.is_free(t, (x, 0))}

        before, edges = held(), table.recount()["edges"]
        leg = make_chain(grid, table, PlannerConfig()).plan_leg(
            0, (2, 0), (4, 0))
        assert leg.tier == TIER_WAIT
        assert leg.path.steps == Path.waiting((2, 0), 0, 7).steps
        table.reserve_path(leg.commit_path)  # what the planner commits
        assert held() - before == {(0, 2)}
        assert table.recount()["edges"] == edges

    def test_tier_wait_free_run_is_committed(self):
        grid = corridor(5)
        # Neighbours blocked for ages, own cell free (up to a crossing
        # reserved at ``crossed_at``): the search blows a tiny budget and
        # the robot legally holds position for min(free run, backoff).
        for crossed_at, hold in ((None, 8), (5, 4)):
            cdt = ConflictDetectionTable()
            blockade(cdt, (1, 0), until=100)
            blockade(cdt, (3, 0), until=100)
            if crossed_at is not None:
                cdt.reserve_path(Path.waiting((2, 0), crossed_at, 0))
            assert pipeline.FALLBACK_WAIT_TICKS == 8
            config = PlannerConfig(max_search_expansions=3)
            chain = make_chain(grid, cdt, config)
            leg = chain.plan_leg(0, (2, 0), (4, 0))
            assert leg.tier == TIER_WAIT
            assert leg.path.steps == Path.waiting((2, 0), 0, hold).steps
            assert leg.commit_path is leg.path  # whole wait conflict-free
            assert not cdt.is_free(3, (2, 0))  # the chain committed it
            # The degraded leg is recorded: the failed search's stats
            # ride along and say the budget ended it.
            (failed,) = leg.search_stats
            assert failed.budget_exhausted
            assert (failed.expansions, failed.budget) == (4, 3)

    def test_unreachable_goal_fails_fast(self):
        # A disconnected floor must still raise immediately: no amount
        # of waiting/replanning conjures a corridor, and looping to the
        # simulator's max_ticks would bury the real error.
        grid = Grid(10, 3, blocked=[(5, y) for y in range(3)])
        config = PlannerConfig(max_search_expansions=500)
        chain = make_chain(grid, ConflictDetectionTable(), config)
        with pytest.raises(PathNotFoundError):
            chain.plan_leg(0, (0, 0), (9, 0))

    def test_chain_is_deterministic(self):
        grid = corridor(30)
        config = PlannerConfig(max_search_expansions=500)

        def run():
            cdt = ConflictDetectionTable()
            blockade(cdt, (20, 0), until=300)
            return make_chain(grid, cdt, config).plan_leg(0, (0, 0), (29, 0))

        first, second = run(), run()
        assert first.path.steps == second.path.steps
        assert first.tier == second.tier


class TestFinisherTotalWaitCap:
    def test_total_wait_cap_declines_degenerate_tails(self):
        grid = corridor(5)
        cdt = ConflictDetectionTable()
        blockade(cdt, (1, 0), until=40)   # first hop waits ~40 ticks
        blockade(cdt, (2, 0), until=100)  # second hop waits ~60 more
        cells = ((0, 0), (1, 0), (2, 0))
        # Each step stays under the per-step cap, so only the total cap
        # can catch the degenerate tail.
        generous = follow_with_waits(cdt, cells, 0, max_wait_per_step=64,
                                     max_total_wait=1000)
        assert generous is not None and generous[-1][1:] == (2, 0)
        assert follow_with_waits(cdt, cells, 0, max_wait_per_step=64) is None


def fail_first_attempts(monkeypatch) -> None:
    """Make the full tier fail on the first attempt of each leg.

    Wraps ``pipeline.search``, the name the chain's tier 1 calls, so
    every leg starts with a wait leg and reaches its target through
    ``continue_leg``.  Tier 0 goes off too (``tier0_off_patch``): the
    fast path would otherwise serve the uncongested legs before the
    sabotaged full tier is ever consulted.
    """
    failed_once = set()
    real_search = pipeline.search

    def search_failing_once(grid, reservation, request, *args):
        # A wait holds the robot in place, so the continuation asks for
        # the same endpoints again.  (A leg that starts on its target is
        # left alone: a wait there already "arrives".)
        key = (request.source, request.goal)
        if request.source != request.goal and key not in failed_once:
            failed_once.add(key)
            return SearchOutcome(request, SEARCH_EXHAUSTED, None,
                                 SearchStats())
        failed_once.discard(key)
        return real_search(grid, reservation, request, *args)

    monkeypatch.setattr(pipeline, "search", search_failing_once)
    monkeypatch.setattr(*tier0_off_patch())


class TestHorizonReplanEngine:
    def test_partial_legs_drain_through_horizon_replans(self, monkeypatch):
        scenario = make_mini(n_items=30)
        state, items = scenario.build()
        monkeypatch.setattr(pipeline, "FALLBACK_WAIT_TICKS", 2)
        fail_first_attempts(monkeypatch)
        planner = NaiveTaskPlanner(state, PlannerConfig())
        config = SimulationConfig(collect_paths=True)
        result = Simulation(state, planner, items, config).run()

        assert result.metrics.items_processed == 30
        stats = planner.stats
        assert stats.legs_wait > 0
        assert stats.horizon_replans == stats.legs_wait
        assert stats.legs_planned == stats.legs_full + stats.legs_wait
        assert result.metrics.fallback_view() == {
            "budget_exhausted": 0,  # the forced failure spent no budget
            "wait_legs": stats.legs_wait,
            "horizon_replans": stats.horizon_replans,
        }
        # Every searched leg was conflict-checked end to end: no
        # *cross-robot* conflicts among the continuations (same-robot
        # consecutive legs share their boundary vertex by construction,
        # and picker cells are the documented off-grid queue buffer — the
        # same filter the integration-suite audit applies).  Waits are
        # left out: a boxed wait deliberately records the co-occupancy of
        # a parked robot and the plan already swept through its cell.
        waits = {index for index, path in enumerate(result.paths)
                 if path.source == path.goal and path.duration > 0}
        picker_cells = {p.location for p in state.pickers}
        cross = [c for c in find_conflicts(result.paths)
                 if result.path_owners[c.first] != result.path_owners[c.second]
                 and c.cell not in picker_cells
                 and not {c.first, c.second} & waits]
        assert cross == []
        # No wait outlasts the replan backoff it was planned under.
        assert len(waits) == stats.legs_wait
        assert all(result.paths[index].duration <= 2 for index in waits)

    def test_budget_exhausted_legs_are_counted(self):
        # A real budget hit (not a forced failure): the planner counts the
        # degraded leg, which the run reports as ``budget_exhausted``.
        state, __ = make_mini(n_items=1).build()
        planner = NaiveTaskPlanner(
            state, PlannerConfig(max_search_expansions=3))
        source = state.robots[0].location
        goal = max((rack.home for rack in state.racks),
                   key=lambda home: abs(home[0] - source[0])
                   + abs(home[1] - source[1]))
        path = planner.plan_leg(0, source, goal)
        assert path.goal == source  # a wait: the search gave up
        assert planner.stats.legs_wait == 1
        assert planner.stats.budget_exhausted_legs == 1
        assert planner.stats.search_expansions == 4


class TestLegacyEngineGuard:
    def test_frozen_engine_rejects_partial_legs(self, monkeypatch):
        # The frozen per-tick engine predates horizon replans; handing
        # it a planner that emits partial legs must fail loudly, not
        # silently teleport robots through stage transitions.
        from repro.errors import SimulationError
        from repro.sim._legacy_engine import LegacySimulation
        scenario = make_mini(n_items=20)
        state, items = scenario.build()
        fail_first_attempts(monkeypatch)
        planner = NaiveTaskPlanner(state, PlannerConfig())
        with pytest.raises(SimulationError, match="partial"):
            LegacySimulation(state, planner, items).run()


class TestMissionResume:
    def make_mission(self):
        return Mission(robot_id=0, rack_id=0, batch=[object()],
                       path=Path.from_cells([(0, 0), (1, 0)], start_time=0),
                       stage=MissionStage.TO_RACK)

    def test_resume_keeps_stage(self):
        mission = self.make_mission()
        continuation = Path.from_cells([(1, 0), (2, 0)], start_time=1)
        mission.resume(1, continuation)
        assert mission.stage is MissionStage.TO_RACK
        assert mission.path is continuation

    def test_resume_rejects_discontinuous_leg(self):
        from repro.errors import SimulationError
        mission = self.make_mission()
        with pytest.raises(SimulationError):
            mission.resume(1, Path.from_cells([(0, 0), (1, 0)], start_time=1))
        with pytest.raises(SimulationError):
            mission.resume(2, Path.from_cells([(1, 0), (2, 0)], start_time=1))


class TestPlannersCliFilter:
    def test_parse_planners_canonicalises(self):
        from repro.experiments.matrix import parse_planners
        assert parse_planners("ntp, eatp") == ("NTP", "EATP")
        assert parse_planners("EATP,EATP") == ("EATP",)

    def test_parse_planners_rejects_unknown(self):
        from repro.experiments.matrix import parse_planners
        with pytest.raises(ConfigurationError, match="unknown planner"):
            parse_planners("NTP,WARP")

    def test_parse_planners_rejects_empty(self):
        from repro.experiments.matrix import parse_planners
        with pytest.raises(ConfigurationError):
            parse_planners(" , ")

"""Many-leg planner wakes through the one plan-then-reserve loop, the
paper-scale auto-gate, and the tier-0.5 wait-following rescue.

A planner wake is the paper's Alg. 1 / Alg. 3 loop on every floor size:
per selected rack — closest idle robot, ST-A* against the reservation
structure, reserve, next.  The suite pins that ``Planner.plan`` with many
resolved legs *is* that many ``plan_leg`` calls in the same order (paths,
counters and reservation footprint), and that whatever a congested wake
commits is conflict-free when replayed onto a fresh table.

What the one ``Grid.paper_scale`` gate decides — the tiled ST graph, the
rescue, the deep-tie search order, the lazy Manhattan fields — is pinned
here too.  (The file keeps its PR-6 name so the surviving test ids stay
stable.)
"""

from __future__ import annotations

import copy
import dataclasses
from array import array
from dataclasses import replace

import pytest

from repro.config import PAPER_SCALE_MIN_CELLS, PlannerConfig
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.heuristics import (HeuristicFieldCache,
                                          _LazyManhattanFlat)
from repro.pathfinding.paths import Path
from repro.pathfinding import pipeline
from repro.pathfinding.pipeline import (FASTPATH_AUDIT_REJECT,
                                        FASTPATH_RESCUE, RESCUE_CAPS,
                                        TIER_FREE_FLOW, TIER_FULL,
                                        FallbackChain)
from repro.pathfinding.spatiotemporal_graph import (
    ShardedSpatiotemporalGraph, SpatiotemporalGraph)
from repro.pathfinding.st_astar import SEARCH_COMPLETE, SearchRequest, search
from repro.planners import PLANNERS
from repro.planners.base import SelectionEntry
from repro.warehouse.entities import Item, Picker, Rack, Robot
from repro.warehouse.grid import Grid
from repro.warehouse.state import WarehouseState
from repro.workloads.datasets import make_mini

#: Counters a ``plan()`` wake moves and bare ``plan_leg`` calls do not
#: (or that are wall-clock): set aside when comparing the two.
WAKE_ONLY_STATS = ("selection_seconds", "planning_seconds",
                   "schemes_emitted", "assignments_emitted")


def wake_world(grid: Grid, legs) -> WarehouseState:
    """A floor where leg ``i`` is robot ``i`` (at its source) fetching
    rack ``i`` (homed at its goal, one pending item)."""
    racks = [Rack(rack_id=i, home=goal, picker_id=0,
                  pending_items=[Item(item_id=i, rack_id=i, arrival=0,
                                      processing_time=5)])
             for i, (__, goal) in enumerate(legs)]
    robots = [Robot(robot_id=i, location=source)
              for i, (source, __) in enumerate(legs)]
    return WarehouseState(grid=grid, racks=racks,
                          pickers=[Picker(picker_id=0, location=(0, 0))],
                          robots=robots)


def scripted(planner_name: str):
    """``planner_name`` with selection replaced by "i-th rack to i-th
    robot" (both ascending by id) — the pre-matched form EATP's flip
    requesting hands the base loop."""
    class Scripted(PLANNERS[planner_name]):
        def _select(self, t, robots):
            return [SelectionEntry(rack, robot) for rack, robot
                    in zip(self.state.selectable_racks(), robots)]
    return Scripted


def head_on_legs(y: int, x_left: int, x_right: int, pairs: int):
    """``2 * pairs`` legs along rows ``y, y+1, …``: on every row one
    robot crosses left→right and another right→left, head-on."""
    legs = []
    for row in range(pairs):
        a, b = (x_left, y + row), (x_right, y + row)
        legs += [(a, b), (b, a)]
    return legs


def assert_wake_is_the_sequential_loop(make_planner, t: int = 0):
    """``plan(t)`` equals successive ``plan_leg`` calls on a twin planner.

    ``make_planner`` builds a fresh (world, planner) each call; the twin
    replays the wake's own (robot, rack) order leg by leg.  Paths, the
    deterministic counters and the structure footprint must all agree.
    """
    planner, twin = make_planner(), make_planner()
    scheme = planner.plan(t)
    for assignment in scheme:
        robot = twin.state.robots[assignment.robot_id]
        rack = twin.state.racks[assignment.rack_id]
        assert twin.plan_leg(t, robot.location, rack.home) \
            == assignment.pickup_path
    stats, twin_stats = (dataclasses.asdict(p.stats) for p in (planner, twin))
    for key in WAKE_ONLY_STATS:
        del stats[key], twin_stats[key]
    assert stats == twin_stats
    assert planner.memory_bytes() == twin.memory_bytes()
    return scheme, planner


class TestWakeIsTheSequentialLoop:
    """Fails before PR 18 on the at-gate floor — not on the paths (a
    batched wake's conflict replan *was* the sequential leg) but on the
    counters: every candidate the commit audit rejected had already paid
    its search once (361 expansions against the loop's 252 here)."""

    #: Traffic already on the table when the wake opens: two robots parked
    #: past the rescue's wait caps (those rows must search), one parked
    #: briefly (rescued), two crossing the rows.
    CROSS_TRAFFIC = [([(36, 42)] * 40, 0), ([(42, 41)] * 40, 0),
                     ([(38, 43)] * 12, 0),
                     ([(40, y) for y in range(36, 50)], 3),
                     ([(44, y) for y in range(49, 35, -1)], 5)]

    def at_gate(self, planner_name):
        assert 128 * 128 == PAPER_SCALE_MIN_CELLS

        def make_planner():
            legs = head_on_legs(y=40, x_left=30, x_right=50, pairs=5)
            planner = scripted(planner_name)(
                wake_world(Grid(128, 128), legs))
            for cells, t0 in self.CROSS_TRAFFIC:
                planner.reservation.reserve_path(
                    Path.from_cells(cells, start_time=t0))
            return planner
        return make_planner

    @pytest.mark.parametrize("planner_name", ["NTP", "EATP"])
    def test_at_gate_floor(self, planner_name):
        scheme, planner = assert_wake_is_the_sequential_loop(
            self.at_gate(planner_name))
        assert len(scheme) == 10
        assert planner.grid.paper_scale
        # The wake was congested: most legs lost tier 0 and searched.
        assert planner.stats.legs_full >= 5

    @pytest.mark.parametrize("planner_name", ["NTP", "EATP"])
    def test_mini_floor(self, planner_name):
        spec = replace(make_mini(seed=3, n_items=10), n_robots=9)
        # NTP as shipped (most-slack selection, closest-robot resolution);
        # EATP's learned policy would defer most racks, so script it.
        planner_class = (PLANNERS["NTP"] if planner_name == "NTP"
                         else scripted(planner_name))

        def make_planner():
            state, __ = spec.build()
            for rack in state.racks:
                state.deliver_item(Item(item_id=rack.rack_id,
                                        rack_id=rack.rack_id, arrival=0,
                                        processing_time=5))
            return planner_class(state)

        scheme, planner = assert_wake_is_the_sequential_loop(make_planner)
        assert len(scheme) >= 8
        assert not planner.grid.paper_scale


class TestBatchConflictReplan:
    """The PR-6 batch fixtures, kept as inputs to the one loop."""

    def test_head_on_batch_commits_conflict_free(self):
        """Eight head-on legs in one wake: every leg is planned against
        the reservations of the legs before it, so replaying the commits
        onto a fresh table audits clean leg by leg."""
        grid = Grid(12, 10)
        legs = head_on_legs(y=3, x_left=2, x_right=9, pairs=4)
        planner = scripted("NTP")(wake_world(grid, legs))
        scheme = planner.plan(0)
        assert len(scheme) == 8
        # Each row's second robot meets the first one's descent head-on.
        assert planner.stats.fastpath_audit_rejects >= 4
        fresh = SpatiotemporalGraph(grid)
        for assignment, (source, goal) in zip(scheme, legs):
            path = assignment.pickup_path
            assert (path.source, path.goal) == (source, goal)
            assert fresh.audit_path(path) is True
            fresh.reserve_path(path)

    def test_disjoint_batch_needs_no_replan(self):
        # Same direction, one row each: the legs never meet, so every
        # one of them is served by the tier-0 descent.
        legs = [((2, y), (9, y)) for y in range(1, 9)]
        planner = scripted("NTP")(wake_world(Grid(12, 10), legs))
        scheme = planner.plan(0)
        assert len(scheme) == 8
        assert planner.stats.legs_free_flow == 8
        assert planner.stats.fastpath_audit_rejects == 0


class TestPaperScaleAutoGate:
    """The reservation layout follows the floor size alone: the ST graph
    is tiled at paper scale, the CDT is the one global table at every
    size."""

    def test_small_floor_defaults_off(self):
        state, __ = make_mini(seed=3, n_items=10).build()
        planner = PLANNERS["NTP"](state)
        assert planner.grid.paper_scale is False
        assert type(planner.reservation) is SpatiotemporalGraph
        state, __ = make_mini(seed=3, n_items=10).build()
        eatp = PLANNERS["EATP"](state)
        assert type(eatp.reservation) is ConflictDetectionTable

    def test_paper_floor_defaults_on(self):
        # 128x128 sits exactly on the gate (16,384 cells >= the floor).
        assert 128 * 128 == PAPER_SCALE_MIN_CELLS
        for name in ("NTP", "ATP"):
            state = WarehouseState(grid=Grid(128, 128), racks=[],
                                   pickers=[], robots=[])
            planner = PLANNERS[name](state)
            assert planner.grid.paper_scale is True
            assert isinstance(planner.reservation,
                              ShardedSpatiotemporalGraph)

    def test_eatp_global_cdt_at_paper_scale(self):
        # EATP's KNN index needs at least one rack to index, and the
        # rack's picker must exist.
        state = WarehouseState(grid=Grid(128, 128),
                               racks=[Rack(rack_id=0, home=(4, 4),
                                           picker_id=0)],
                               pickers=[Picker(picker_id=0, location=(0, 0))],
                               robots=[])
        planner = PLANNERS["EATP"](state)
        assert planner.grid.paper_scale is True
        assert type(planner.reservation) is ConflictDetectionTable

    @pytest.mark.parametrize("height", [128, 127])
    def test_one_gate_four_decisions(self, monkeypatch, height):
        """At 128x128 (exactly the gate) every paper-scale decision is
        on, one row short every one is off: they read one flag."""
        from repro.pathfinding import st_astar
        on = 128 * height >= PAPER_SCALE_MIN_CELLS
        assert on is (height == 128)
        grid = Grid(128, height)
        assert grid.paper_scale is on
        planner = PLANNERS["NTP"](WarehouseState(grid=grid, racks=[],
                                                 pickers=[], robots=[]))
        assert type(planner.reservation) is (
            ShardedSpatiotemporalGraph if on else SpatiotemporalGraph)
        assert planner.pipeline.rescue_caps == (RESCUE_CAPS if on
                                                else (0, 0))
        flat = planner.heuristics.field((90, 90)).flat
        assert isinstance(flat, _LazyManhattanFlat) is on
        deep = []
        for name in ("_search_heap", "_search_compiled"):
            core = getattr(st_astar, name)
            monkeypatch.setattr(
                st_astar, name,
                lambda *args, core=core: deep.append(args[4]) or core(*args))
        outcome = search(grid, planner.reservation,
                         SearchRequest((0, 0), (90, 90), 0))
        assert outcome.status == SEARCH_COMPLETE
        assert deep == [on]

    def test_obstructed_gate_floor_keeps_the_eager_field(self):
        grid = Grid(128, 128, blocked=[(64, 64)])
        assert grid.paper_scale
        flat = HeuristicFieldCache(grid).field((64, 65)).flat
        assert isinstance(flat, array)
        # The detour round the pillar, where Manhattan would say 2.
        assert flat[grid.cell_index((64, 63))] == 4


class TestWaitFollowingRescue:
    GRID = None  # built per test; all-passable 12x10 floor

    def make_chain(self, reservation, config):
        grid = reservation.grid if hasattr(reservation, "grid") \
            else Grid(12, 10)
        return FallbackChain(grid, reservation, HeuristicFieldCache(grid),
                             config)

    @staticmethod
    def never_search(*args):
        raise AssertionError("the rescue should have served this leg")

    def test_forced_rescue_serves_conflicted_descent(self, monkeypatch):
        grid = Grid(12, 10)
        reservation = SpatiotemporalGraph(grid)
        # A robot parks on (3, 5) until t=4, squarely on the only
        # monotone descent from (0, 5) to (6, 5).
        blocker = Path.from_cells([(3, 5)] * 4 + [(3, 4)], start_time=0)
        reservation.reserve_path(blocker)
        chain = self.make_chain(reservation, PlannerConfig())
        monkeypatch.setattr(pipeline, "search", self.never_search)
        chain.rescue_caps = RESCUE_CAPS  # the paper-scale caps, forced
        before = copy.deepcopy(reservation)  # the chain reserves the leg
        leg = chain.plan_leg(0, (0, 5), (6, 5))
        assert leg.tier == TIER_FREE_FLOW
        assert leg.fastpath == FASTPATH_RESCUE
        assert leg.path.source == (0, 5)
        assert leg.path.goal == (6, 5)
        assert len(leg.path) > 7  # at least one inserted wait
        assert before.audit_path(leg.path) is True

    def test_rescue_declines_past_wait_caps(self):
        grid = Grid(12, 10)
        reservation = SpatiotemporalGraph(grid)
        # The blocker sits far longer than the rescue's wait budget.
        blocker = Path.from_cells([(3, 5)] * 40, start_time=0)
        reservation.reserve_path(blocker)
        chain = self.make_chain(reservation, PlannerConfig())
        chain.rescue_caps = (2, 2)
        leg = chain.plan_leg(0, (0, 5), (6, 5))
        # Rescue gave up; the leg fell into the unchanged tier-1 search.
        assert leg.fastpath == FASTPATH_AUDIT_REJECT
        assert leg.tier == TIER_FULL
        assert leg.path.goal == (6, 5)

    def test_rescue_defaults_off_below_the_gate(self):
        grid = Grid(12, 10)
        assert not grid.paper_scale
        reservation = SpatiotemporalGraph(grid)
        reservation.reserve_path(
            Path.from_cells([(3, 5)] * 4 + [(3, 4)], start_time=0))
        chain = self.make_chain(reservation, PlannerConfig())
        assert chain.rescue_caps == (0, 0)
        # The descent the forced rescue serves above is a plain reject.
        leg = chain.plan_leg(0, (0, 5), (6, 5))
        assert leg.fastpath == FASTPATH_AUDIT_REJECT
        assert leg.tier == TIER_FULL


class TestDeepTieOrdering:
    def test_paper_scale_tie_break_preserves_optimality(self):
        """The deep-tie heap order changes expansion order, not cost."""
        def reserved_table(grid):
            table = SpatiotemporalGraph(grid)
            for cells, t0 in [([(4, y) for y in range(8)], 0),
                              ([(x, 3) for x in range(2, 9)], 2),
                              ([(7, 7), (7, 6), (7, 5)], 1)]:
                table.reserve_path(Path.from_cells(cells, start_time=t0))
            return table

        grid = Grid(12, 10)
        request = SearchRequest((0, 0), (10, 8), 0)
        baseline = search(grid, reserved_table(grid), request)
        grid.paper_scale = True  # the deep order on a small floor
        outcome = search(grid, reserved_table(grid), request)
        assert baseline.status == outcome.status == SEARCH_COMPLETE
        baseline, deep = baseline.path, outcome.path
        # Both reach the goal at the same (optimal) time; the route may
        # legitimately differ.
        assert deep.end_time == baseline.end_time
        assert deep.goal == baseline.goal
        assert reserved_table(grid).audit_path(deep) is True

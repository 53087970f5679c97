"""The compiled one-call leg is the python chain, leg for leg.

Under the compiled switch :meth:`FallbackChain.plan_leg` makes one native
``leg`` call — tier 0 with the rescue and EATP's finisher, the search
where tier 0 made no leg, the insert.  Under the python switch it runs
the python chain (:meth:`FallbackChain._chain_leg`: ``kernel_leg``, then
``search``) and ``reserve_path``, and no native code.  Each test here
plans every leg both ways — the one call, and a twin under the python
switch over a table holding the same reservations — and asserts, leg
after leg: the tier, tier 0's outcome, the keys, the table's counts and
contents after the commit, the planner's stats and EATP's cache.

The driven runs cover the mini floor, a floor past the paper-scale gate
(where the rescue fires) and the Pillars floor; crafted legs cover a
served and a declined finisher walk, a boxed robot, an exhausted budget
and an unreachable goal.  The entry's refusals close the module, with
the learner step the selectors take beside ``decide`` and ``learn``.
"""

from __future__ import annotations

import copy
import random
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PlannerConfig, QLearningConfig
from repro.errors import PathNotFoundError
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.cache import ShortestPathCache
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.heuristics import HeuristicFieldCache
from repro.pathfinding.paths import Path
from repro.pathfinding.pipeline import (FASTPATH_AUDIT_REJECT, FASTPATH_HIT,
                                        FASTPATH_MISS, FASTPATH_RESCUE,
                                        RESCUE_CAPS, TIER_FREE_FLOW,
                                        TIER_FULL, TIER_WAIT, FallbackChain)
from repro.pathfinding.spatiotemporal_graph import (ShardedSpatiotemporalGraph,
                                                    SpatiotemporalGraph)
from repro.planners import PLANNERS
from repro.planners.base import Planner, PlannerStats
from repro.rl.qlearning import QLearningAgent
from repro.sim.engine import Simulation
from repro.warehouse.grid import Grid
from repro.workloads.datasets import make_mini, obstructed_floor
from repro.workloads.scenario import ItemStreamSpec, ScenarioSpec
from tests.conftest import count_kernel_calls, kernel_switch

COMPILED = build_and_load()

needs_compiled = pytest.mark.skipif(
    COMPILED is None,
    reason="native kernel unavailable (no compiler or REPRO_KERNEL_BUILD=0)")

#: The stats a leg moves (selection and timing are not a leg's), but
#: the descents, which each side counts under its own switch.
LEG_STATS = ("legs_planned", "legs_free_flow", "legs_full", "legs_wait",
             "fastpath_misses", "fastpath_audit_rejects",
             "budget_exhausted_legs", "search_expansions",
             "search_peak_open", "cache_finished_legs", "rescued_legs")


def gate_floor() -> ScenarioSpec:
    """A small floor just past the paper-scale gate: the tiled tables,
    the deep-tie search and the rescue serve it."""
    return ScenarioSpec(
        name="Gate", width=128, height=128, n_racks=48, n_pickers=2,
        n_robots=16, items=ItemStreamSpec.of(
            "poisson", n_items=80, n_racks=48, rate=1.0, seed=3,
            processing_low=5, processing_high=12))


def in_python(call):
    """``call()`` under the python switch: the twin's side."""
    with kernel_switch("python"):
        return call()


def table_view(table):
    """The table's counts and contents (the python layout a pickle
    carries, under either switch): what a commit leaves behind."""
    return table.live_counts(), table.__getstate__()


def cache_view(cache):
    return (None if cache is None
            else (dict(cache._paths), cache.hits, cache.misses))


def assert_stats_equal(got, want) -> None:
    """The one call's stats are the twin's, its descents compiled."""
    assert ({name: getattr(got, name) for name in LEG_STATS}
            == {name: getattr(want, name) for name in LEG_STATS})
    assert got.descents_python == want.descents_compiled == 0
    assert got.descents_compiled == want.descents_python


def assert_legs_equal(got, want) -> None:
    """The one call's leg is the chain's: tier, tier 0's outcome, keys,
    the commit and the searches' counters."""
    assert (got.tier, got.fastpath) == (want.tier, want.fastpath)
    assert list(got.path.keys) == list(want.path.keys)
    assert got.path.start_time == want.path.start_time
    assert list(got.commit_path.keys) == list(want.commit_path.keys)
    assert got.search_stats == want.search_stats


class Lockstep:
    """A planner whose every leg and purge a twin repeats under the
    python switch, each leg compared as it is committed."""

    def __init__(self, planner: Planner, export_every: int = 1) -> None:
        self.planner, self.twin = planner, copy.deepcopy(planner)
        self.export_every = export_every
        self.outcomes = []
        self.last = {}
        for name, owner in (("got", planner), ("want", self.twin)):
            self._watch_commits(name, owner)
        leg, advance = planner._plan_leg_timed, planner.advance
        planner._plan_leg_timed = lambda *args: self._both(leg, *args)
        planner.advance = lambda *args: (
            in_python(lambda: self.twin.advance(*args)), advance(*args))[1]

    def _watch_commits(self, name, owner) -> None:
        commit = owner._commit_leg

        def watched(leg):
            self.last[name] = leg
            commit(leg)
        owner._commit_leg = watched

    def _both(self, leg, t, source, goal):
        errors = []
        for call in (lambda: in_python(
                lambda: self.twin._plan_leg_timed(t, source, goal)),
                     lambda: leg(t, source, goal)):
            try:
                path = call()
            except PathNotFoundError as error:
                errors.append((error.source, error.goal, error.stats))
        if errors:
            assert errors == [errors[0]] * 2
            raise PathNotFoundError(*errors[0][:2], stats=errors[0][2])
        got, want = self.last["got"], self.last["want"]
        assert_legs_equal(got, want)
        self.outcomes.append((got.tier, got.fastpath, bool(
            got.search_stats and got.search_stats[0].cache_finished)))
        planner, twin = self.planner, self.twin
        assert_stats_equal(planner.stats, twin.stats)
        assert cache_view(planner.cache) == cache_view(twin.cache)
        if len(self.outcomes) % self.export_every == 0:
            assert table_view(planner.reservation) == in_python(
                lambda: table_view(twin.reservation))
        else:
            assert planner.reservation.live_counts() == in_python(
                twin.reservation.live_counts)
        return path


def drain_in_lockstep(spec, planner_name, export_every=1):
    """Drain ``spec`` under ``planner_name`` with the twin alongside;
    the outcomes its legs took."""
    state, items = spec.build()
    planner = PLANNERS[planner_name](state, PlannerConfig())
    lockstep = Lockstep(planner, export_every)
    Simulation(state, planner, items).run()
    assert table_view(planner.reservation) == in_python(
        lambda: table_view(lockstep.twin.reservation))
    return lockstep.outcomes


@needs_compiled
class TestDrivenRuns:
    """Every leg of whole runs, both ways."""

    @pytest.mark.parametrize("planner", ["NTP", "ATP", "EATP"])
    def test_mini_floor(self, planner):
        with kernel_switch("compiled"):
            outcomes = drain_in_lockstep(make_mini(n_items=40), planner)
        assert {tier for tier, __, __ in outcomes} >= {TIER_FREE_FLOW}
        if planner == "EATP":  # the finisher served tier-0 walks
            assert (TIER_FREE_FLOW, FASTPATH_HIT, True) in outcomes

    @pytest.mark.parametrize("planner", ["NTP", "EATP"])
    def test_gate_floor_rescues(self, planner):
        with kernel_switch("compiled"):
            outcomes = drain_in_lockstep(gate_floor(), planner,
                                         export_every=10)
        assert any(fastpath == FASTPATH_RESCUE
                   for __, fastpath, __ in outcomes)

    @pytest.mark.parametrize("planner", ["NTP", "EATP"])
    def test_pillars_floor(self, planner):
        spec = obstructed_floor(0.3, pillar_counts=(48,))[0]
        spec = spec.with_(items=ItemStreamSpec.of(
            "poisson", n_items=60, n_racks=spec.n_racks, rate=0.5, seed=5))
        with kernel_switch("compiled"):
            outcomes = drain_in_lockstep(spec, planner, export_every=5)
        assert outcomes


class Twins:
    """Two chains over tables holding the same reservations: the one
    call's, and the python chain's under the python switch, each folding
    its legs into its own stats as the planner does."""

    def __init__(self, grid: Grid, make_table, config=None,
                 threshold=None, rescue=False) -> None:
        config = config if config is not None else PlannerConfig()
        self.sides = []
        for __ in range(2):
            table = make_table(grid)
            cache = None if threshold is None else ShortestPathCache(
                threshold)
            chain = FallbackChain(grid, table, HeuristicFieldCache(grid),
                                  config, cache=cache)
            if rescue:
                chain.rescue_caps = RESCUE_CAPS
            self.sides.append(SimpleNamespace(
                chain=chain, cache=cache, reservation=table,
                stats=PlannerStats()))

    def both(self, call):
        """``[call(ours), call(theirs)]``, theirs under the python
        switch."""
        ours, theirs = self.sides
        return [call(ours), in_python(lambda: call(theirs))]

    def views(self):
        return self.both(lambda side: (table_view(side.reservation),
                                       cache_view(side.cache)))

    def reserve(self, path: Path) -> None:
        self.both(lambda side: side.reservation.reserve_path(path))

    def leg(self, t, source, goal):
        """The leg both ways, compared with everything it leaves."""

        def plan(side):
            leg = side.chain.plan_leg(t, source, goal)
            Planner._commit_leg(side, leg)
            return leg

        got, want = self.both(plan)
        assert_legs_equal(got, want)
        ours, theirs = self.sides
        assert_stats_equal(ours.stats, theirs.stats)
        views = self.views()
        assert views[0] == views[1]
        return got

    def refusal(self, t, source, goal):
        """The error both ways (equal, stats included); nothing is
        reserved or recorded by either."""
        before = self.views()

        def refused(side):
            with pytest.raises(PathNotFoundError) as caught:
                side.chain.plan_leg(t, source, goal)
            return caught.value

        errors = self.both(refused)
        assert [str(error) for error in errors] == [str(errors[0])] * 2
        assert errors[0].stats == errors[1].stats
        assert self.views() == before
        return errors[0]


def blockade(twins: Twins, cell, until: int) -> None:
    twins.reserve(Path.waiting(cell, 0, until))


TABLES = {
    "cdt": lambda grid: ConflictDetectionTable(),
    "stgraph": SpatiotemporalGraph,
    "sharded": lambda grid: ShardedSpatiotemporalGraph(2),
}


@needs_compiled
@pytest.mark.parametrize("make_table", TABLES.values(), ids=TABLES)
class TestCraftedLegs:
    """One leg each of the outcomes a run meets rarely."""

    def test_finisher_walk_served(self, make_table):
        with kernel_switch("compiled"):
            twins = Twins(Grid(14, 11), make_table, threshold=5)
            leg = twins.leg(0, (0, 0), (13, 10))
        assert (leg.tier, leg.fastpath) == (TIER_FREE_FLOW, FASTPATH_HIT)
        assert leg.search_stats[0].cache_finished

    def test_finisher_walk_declined(self, make_table):
        with kernel_switch("compiled"):
            twins = Twins(Grid(12, 10), make_table, threshold=5)
            # past the walk's 64-tick cap, on the descent's last column
            twins.reserve(Path.waiting((9, 5), 0, 200))
            leg = twins.leg(0, (0, 0), (9, 7))
            assert next(iter(twins.sides[0].cache._paths)) == ((9, 2),
                                                               (9, 7))
        assert (leg.tier, leg.fastpath) == (TIER_FULL, FASTPATH_MISS)

    def test_audit_reject_and_forced_rescue(self, make_table):
        with kernel_switch("compiled"):
            for rescue, fastpath in ((False, FASTPATH_AUDIT_REJECT),
                                     (True, FASTPATH_RESCUE)):
                twins = Twins(Grid(12, 10), make_table, rescue=rescue)
                twins.reserve(Path.from_cells([(3, 5)] * 4 + [(3, 4)], 0))
                leg = twins.leg(0, (0, 5), (6, 5))
                assert leg.fastpath == fastpath

    def test_boxed_robot_waits(self, make_table):
        with kernel_switch("compiled"):
            twins = Twins(Grid(5, 1), make_table)
            for cell in [(1, 0), (2, 0), (3, 0)]:
                blockade(twins, cell, until=6)
            leg = twins.leg(0, (2, 0), (4, 0))
        assert leg.tier == TIER_WAIT
        assert leg.commit_path.steps == ((0, 2, 0),)

    def test_exhausted_budget_waits(self, make_table):
        grid = Grid(6, 4)
        with kernel_switch("compiled"):
            # the goal is held for ages: the search spends its budget,
            # which is as small as tier 0 allows
            twins = Twins(grid, make_table,
                          PlannerConfig(max_search_expansions=grid.n_cells))
            blockade(twins, (5, 3), until=400)
            leg = twins.leg(0, (0, 0), (5, 3))
        assert leg.tier == TIER_WAIT
        assert leg.search_stats[0].budget_exhausted

    def test_unreachable_goal_raises(self, make_table):
        grid = Grid(10, 3, blocked=[(5, y) for y in range(3)])
        with kernel_switch("compiled"):
            twins = Twins(grid, make_table,
                          PlannerConfig(max_search_expansions=500),
                          threshold=3)
            error = twins.refusal(0, (0, 0), (9, 0))
        assert error.stats.budget == 500

    def test_unreachable_goal_raises_before_any_search(self, make_table):
        # A wall cuts the goal off: the field answers, nothing searches.
        grid = Grid(12, 10, blocked=[(8, y) for y in range(10)])
        with kernel_switch("compiled"):
            twins = Twins(grid, make_table, threshold=3)
            error = twins.refusal(0, (0, 0), (11, 0))
        assert error.stats.expansions == 0
        assert error.stats.budget == PlannerConfig().max_search_expansions


@needs_compiled
def test_a_compiled_leg_is_one_native_call():
    """The one call's leg is one native call; its twin's makes none."""
    with kernel_switch("compiled"):
        twins = Twins(Grid(12, 10), TABLES["cdt"], threshold=5)
        blockade(twins, (4, 0), until=30)
        with count_kernel_calls(COMPILED, ["leg", "run", "store_reserve",
                                           "store_probe"]) as calls:
            twins.leg(0, (0, 0), (9, 0))
    assert dict(calls) == {"leg": 1}


# -- the entry's refusals -----------------------------------------------------


def leg_arguments(grid: Grid, table, **changes):
    """A lawful ``leg`` call toward (9, 7) from (0, 0), with ``changes``."""
    field = HeuristicFieldCache(grid).field((9, 7))
    args = dict(capsule=grid.kernel_capsule(COMPILED),
                store=table.kernel_probe_spec(), h_mode=2, h_arg=field.flat,
                source=0, goal=9 * grid.height + 7, t=0, trigger=0,
                per_step=0, total=0, budget=200_000, deep=0)
    args.update(changes)
    return tuple(args.values())


@needs_compiled
@pytest.mark.parametrize("change, error", [
    (dict(capsule=object()), ValueError),
    (dict(capsule="the store"), ValueError),
    (dict(store=object()), TypeError),
    (dict(source=-1), IndexError),
    (dict(goal=120), IndexError),
    (dict(per_step=0, total=5), ValueError),
    (dict(per_step=70_000, total=70_000), ValueError),
    (dict(per_step=-1, total=-1), ValueError),
    (dict(h_arg=array("q", [0] * 120)), TypeError),
    (dict(h_arg=array("i", [0] * 119)), TypeError),
    (dict(h_mode=3), ValueError),
], ids=["foreign-capsule", "store-as-capsule", "foreign-store", "source-off-grid",
        "goal-off-grid", "caps-half-off", "caps-too-wide", "caps-negative",
        "field-int64", "field-short", "field-mode"])
def test_malformed_arguments_reserve_nothing(change, error):
    with kernel_switch("compiled"):
        grid, table = Grid(12, 10), ConflictDetectionTable()
        table.reserve_path(Path.waiting((3, 3), 0, 5))
        before = table_view(table)
        if change.get("capsule") == "the store":
            change = dict(capsule=table.kernel_probe_spec())
        with pytest.raises(error):
            COMPILED.leg(*leg_arguments(grid, table, **change))
        assert table_view(table) == before
        # the lawful call inserts its leg
        COMPILED.leg(*leg_arguments(grid, table))
        assert table_view(table) != before


@needs_compiled
def test_a_grid_outside_the_stores_layer_reserves_nothing():
    with kernel_switch("compiled"):
        small = Grid(12, 10)
        table = SpatiotemporalGraph(Grid(8, 8))
        table.reserve_path(Path.waiting((3, 3), 0, 5))
        before = table_view(table)
        with pytest.raises(IndexError):
            COMPILED.leg(*leg_arguments(small, table))
        assert table_view(table) == before


# -- the learner step ---------------------------------------------------------


FACTS = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2),
                  st.integers(0, 30), st.integers(0, 400))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 16), epsilon=st.sampled_from([0.0, 0.3, 1.0]),
       rows=st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                            st.tuples(st.floats(-500, 0), st.floats(-500, 0),
                                      st.integers(1, 3)), max_size=12),
       sequence=st.lists(FACTS, min_size=1, max_size=12))
def test_the_learner_step_is_decide_then_learn(seed, epsilon, rows, sequence):
    config = QLearningConfig(epsilon=epsilon)
    agents = []
    for __ in range(2):
        agent = QLearningAgent(config, random.Random(seed))
        for state, (wait, request, mask) in rows.items():
            for action, value in ((0, wait), (1, request)):
                if mask >> action & 1:
                    agent.table.set(state, action, value)
        agents.append(agent)
    stepped, reference = agents
    for facts in sequence:
        action = reference.decide(*facts)
        reference.learn(*facts, action)
        assert stepped.step(*facts) == action
        assert dict(stepped.table) == dict(reference.table)
        assert len(stepped.table) == len(reference.table)
        assert vars(stepped.stats) == vars(reference.stats)
        assert stepped._rng.getstate() == reference._rng.getstate()

"""The tier-0 free-flow fast path: descent identity, audits, counters.

The fast path's correctness claim is sharp — *a conflict-free greedy
descent on the exact heuristic field is byte-identical to what the full
spatiotemporal search would return* — so the suite pins it three ways:

* property tests that descent paths equal ``find_path`` on empty
  reservation tables, across the shared obstructed fixtures and
  randomized pillar grids;
* audit-rejection tests on the corridor fixtures of the pipeline suite,
  including the finisher-emulation path EATP takes;
* end-to-end equivalence: whole simulations with the fast path on and
  off produce identical deterministic views, and the hit/miss/audit
  counters round-trip through serialization.
"""

from __future__ import annotations

import random

import pytest

from repro.config import (PAPER_SCALE_MIN_CELLS, PlannerConfig,
                          SimulationConfig)
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.free_flow import FreeFlowPathCache
from repro.pathfinding.heuristics import (HeuristicFieldCache,
                                          _LazyManhattanFlat)
from repro.pathfinding.paths import Path, packed_path
from repro.pathfinding.pipeline import (FASTPATH_AUDIT_REJECT, FASTPATH_HIT,
                                        FASTPATH_MISS, FASTPATH_OFF,
                                        TIER_FREE_FLOW, TIER_FULL,
                                        FallbackChain)
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding._legacy import seed_planner_patches, tier0_off_patch
from repro.pathfinding.spatiotemporal_graph import SpatiotemporalGraph
from repro.pathfinding.st_astar import (SearchStats, find_path,
                                        search_kernel_name,
                                        set_search_kernel)
from repro.planners import PLANNERS
from repro.sim.serialize import (deterministic_view, metrics_from_dict,
                                 metrics_to_dict, result_to_dict)
from repro.warehouse.grid import Grid
from repro.workloads.datasets import make_mini
from tests.conftest import eatp_finisher

# The shared obstructed fixtures of the heuristic-field suite — imported,
# not copied, so a fixture fix there keeps pinning the descent identity
# here too.
from test_heuristic_fields import GRIDS


_COMPILED = build_and_load()

#: Every test in this module runs once per available kernel plane: the
#: descent/audit/end-to-end claims must hold bit-identically whether the
#: tier-0 body executes in python or through the fused native entry point.
KERNELS = ["python"] + (["compiled"] if _COMPILED is not None else [])


@pytest.fixture(autouse=True, params=KERNELS)
def tier0_kernel(request):
    previous = search_kernel_name()
    set_search_kernel(request.param)
    yield request.param
    set_search_kernel(previous)


def random_pillar_grid(rng: random.Random) -> Grid:
    """A randomized obstructed grid that stays fully connected.

    Isolated pillars (no two adjacent, none on the boundary) can never
    disconnect a 4-connected grid, so every (source, goal) pair over the
    free cells is searchable.
    """
    width = rng.randint(7, 14)
    height = rng.randint(6, 12)
    blocked = set()
    for __ in range(rng.randint(3, 10)):
        x = rng.randrange(1, width - 1)
        y = rng.randrange(1, height - 1)
        if not any((x + dx, y + dy) in blocked
                   for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
            blocked.add((x, y))
    return Grid(width, height, blocked=blocked)


def make_cache(grid: Grid) -> FreeFlowPathCache:
    return FreeFlowPathCache(grid, HeuristicFieldCache(grid))


def make_chain(grid: Grid, reservation, config=None,
               finisher_factory=None) -> FallbackChain:
    heuristics = HeuristicFieldCache(grid)
    config = config if config is not None else PlannerConfig()
    finisher_factory = finisher_factory or (lambda goal: (None, 0))

    def full(t, source, goal):
        finisher, trigger = finisher_factory(goal)
        return find_path(grid, reservation, source, goal, t,
                         heuristic=heuristics.field(goal),
                         max_expansions=config.max_search_expansions,
                         finisher=finisher, finisher_trigger=trigger)

    return FallbackChain(grid=grid, reservation=reservation,
                         heuristics=heuristics, config=config,
                         full_search=full,
                         finisher_factory=finisher_factory)


class TestDescentMatchesSearch:
    """Descents are byte-identical to the search on empty tables."""

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_fixture_grids(self, name):
        grid = GRIDS[name]
        cache = make_cache(grid)
        cells = list(grid.cells())
        rng = random.Random(7)
        for __ in range(25):
            source, goal = rng.choice(cells), rng.choice(cells)
            chain = cache.packed(source, goal).cells
            searched = find_path(grid, ConflictDetectionTable(), source,
                                 goal, 0,
                                 heuristic=cache._heuristics.field(goal))
            assert chain == tuple(searched.spatial_cells()), (
                f"descent diverged from search for {source}->{goal} "
                f"on {name}")

    def test_randomized_obstructed_grids(self):
        for seed in range(12):
            rng = random.Random(1000 + seed)
            grid = random_pillar_grid(rng)
            cache = make_cache(grid)
            cells = list(grid.cells())
            for __ in range(15):
                source, goal = rng.choice(cells), rng.choice(cells)
                chain = cache.packed(source, goal).cells
                searched = find_path(grid, ConflictDetectionTable(), source,
                                     goal, 3,  # non-zero start time too
                                     heuristic=cache._heuristics.field(goal))
                assert chain == tuple(searched.spatial_cells()), (
                    f"descent diverged for {source}->{goal} on seed {seed} "
                    f"({grid!r})")

    def test_descent_matches_default_manhattan_search(self):
        # With no explicit heuristic the search runs on the Manhattan
        # field, which equals the exact field on open floors — the
        # descent must match that default call too.
        grid = GRIDS["open"]
        cache = make_cache(grid)
        chain = cache.packed((0, 0), (8, 6)).cells
        searched = find_path(grid, ConflictDetectionTable(), (0, 0),
                             (8, 6), 0)
        assert chain == tuple(searched.spatial_cells())

    def test_unreachable_returns_none(self):
        grid = Grid(8, 3, blocked=[(4, y) for y in range(3)])
        assert make_cache(grid).packed((0, 0), (7, 0)) is None

    def test_source_equals_goal(self):
        chain = make_cache(GRIDS["open"]).packed((3, 3), (3, 3))
        assert chain.cells == ((3, 3),)


class TestManhattanClosedForm:
    """The native closed-form descent equals the generic walk.

    On the lazy Manhattan field of an unobstructed floor at or above the
    paper-scale gate, ``tier0_leg`` (h_mode 1) walks "all of x, then all
    of y" without reading a field.  ``packed()`` — the generic walk, the
    specification — run on the same lazy field must produce the identical
    chain in both representations tier 0 consumes (cells, packed keys),
    or tier-0 behaviour would silently depend on the kernel.
    """

    def assert_closed_form_matches(self, width, height):
        grid = Grid(width, height)
        cache = make_cache(grid)
        capsule = grid.kernel_capsule(_COMPILED)
        store = _COMPILED.store_new(None, -1, 0, 0)
        rng = random.Random(20220808)
        pairs = [((rng.randrange(width), rng.randrange(height)),
                  (rng.randrange(width), rng.randrange(height)))
                 for __ in range(40)]
        # Degenerate axes: same cell, same column, same row, reversed,
        # corner to corner.
        far = (width - 1, height - 1)
        pairs += [((7, 9), (7, 9)), ((7, 9), (7, height - 2)),
                  ((7, 9), (width - 3, 9)), (far, (7, 9)), ((0, 0), far),
                  ((width - 1, 0), (0, height - 1))]
        for source, goal in pairs:
            assert isinstance(cache._heuristics.field(goal).flat,
                              _LazyManhattanFlat)
            chain = cache.packed(source, goal)
            verdict, keys = _COMPILED.tier0_leg(
                capsule, store, 1, None, grid.cell_index(source),
                grid.cell_index(goal), 0, 0, 0, 0)
            assert verdict == 1, (source, goal)
            assert list(keys) == list(chain.keys), (source, goal)
            assert (tuple(packed_path(0, keys).spatial_cells())
                    == chain.cells), (source, goal)

    @pytest.mark.skipif(_COMPILED is None, reason="native kernel unavailable")
    def test_paper_floor_random_pairs(self):
        self.assert_closed_form_matches(541, 302)

    @pytest.mark.skipif(_COMPILED is None, reason="native kernel unavailable")
    def test_gate_floor_random_pairs(self):
        grid = Grid(128, 128)
        assert grid.n_cells == PAPER_SCALE_MIN_CELLS
        self.assert_closed_form_matches(128, 128)

    def test_small_floors_keep_the_generic_walk(self):
        # Sub-paper floors build eager fields; the descent there still
        # matches the search (TestDescentMatchesSearch) — here we only
        # pin that the closed form is not involved.
        grid = GRIDS["open"]
        cache = make_cache(grid)
        assert not isinstance(cache._heuristics.field((5, 5)).flat,
                              _LazyManhattanFlat)


class TestAuditPath:
    def corridor_tables(self):
        grid = Grid(6, 2)
        cdt = ConflictDetectionTable()
        stg = SpatiotemporalGraph(grid)
        return grid, (cdt, stg)

    def moving_path(self):
        return Path.from_cells([(0, 0), (1, 0), (2, 0), (3, 0)],
                               start_time=0)

    def test_clean_table_audits_free(self):
        __, tables = self.corridor_tables()
        for table in tables:
            assert table.audit_path(self.moving_path())

    def test_vertex_conflict_rejected(self):
        __, tables = self.corridor_tables()
        for table in tables:
            table.reserve_path(Path.waiting((2, 0), 0, 8))
            assert not table.audit_path(self.moving_path())

    def test_swap_conflict_rejected(self):
        __, tables = self.corridor_tables()
        oncoming = Path.from_cells([(3, 0), (2, 0), (1, 0), (0, 0)],
                                   start_time=0)
        for table in tables:
            table.reserve_path(oncoming)
            # Every arrival vertex differs, but the t=1 edge (1,0)->(2,0)
            # swaps with the oncoming (2,0)->(1,0).
            path = Path.from_cells([(1, 0), (2, 0)], start_time=1)
            assert not table.audit_path(path)

    def test_source_vertex_not_probed(self):
        # The robot's own start cell may be "reserved" (its previous leg
        # ends there) — the search never probes it, so neither may the
        # audit.
        __, tables = self.corridor_tables()
        for table in tables:
            table.reserve_path(Path.waiting((0, 0), 0, 0))
            assert table.audit_path(self.moving_path())

    def test_purged_reservations_do_not_reject(self):
        __, tables = self.corridor_tables()
        for table in tables:
            table.reserve_path(Path.waiting((2, 0), 0, 8))
            table.purge_before(50)
            path = Path.from_cells([(0, 0), (1, 0), (2, 0)], start_time=51)
            assert table.audit_path(path)

    def test_matches_probe_by_probe_semantics(self):
        # The reference walk must agree with one ``move_allowed`` probe
        # per step on random paths over random traffic, for both
        # structures.
        grid = Grid(10, 8)
        rng = random.Random(42)
        cdt = ConflictDetectionTable()
        stg = SpatiotemporalGraph(grid)
        for __ in range(15):
            x = rng.randrange(10)
            cells = [(x, y) for y in range(8)]
            start = rng.randrange(6)
            for table in (cdt, stg):
                table.reserve_path(Path.from_cells(cells, start))

        def generic_audit(table, path):
            steps = path.steps
            return all(table.move_allowed(t0, (x0, y0), (x1, y1))
                       for (t0, x0, y0), (__, x1, y1)
                       in zip(steps, steps[1:]))

        for __ in range(40):
            y = rng.randrange(8)
            cells = [(x, y) for x in range(10)]
            if rng.random() < 0.5:
                cells.reverse()
            path = Path.from_cells(cells, rng.randrange(10))
            verdicts = {table.audit_path(path) for table in (cdt, stg)}
            assert len(verdicts) == 1
            assert verdicts == {generic_audit(cdt, path)}


class TestChainTierZero:
    def test_audit_reject_falls_through_identically(self, monkeypatch):
        # Corridor blockade from the pipeline suite: tier 0 must reject
        # and the full tier must answer with the byte-identical path a
        # tier-0-disabled chain produces.
        grid = Grid(30, 1)
        def load(table):
            table.reserve_path(Path.waiting((20, 0), 0, 300))
        cdt_fast, cdt_slow = ConflictDetectionTable(), ConflictDetectionTable()
        load(cdt_fast), load(cdt_slow)
        fast = make_chain(grid, cdt_fast).plan_leg(0, (0, 0), (29, 0))
        monkeypatch.setattr(*tier0_off_patch())
        slow = make_chain(grid, cdt_slow).plan_leg(0, (0, 0), (29, 0))
        assert fast.fastpath == FASTPATH_AUDIT_REJECT
        assert fast.tier == TIER_FULL
        assert slow.fastpath == FASTPATH_OFF
        assert fast.path.steps == slow.path.steps

    def test_tiny_budget_disables_tier_zero(self):
        grid = Grid(12, 10)
        config = PlannerConfig(max_search_expansions=grid.n_cells - 1)
        leg = make_chain(grid, ConflictDetectionTable(), config).plan_leg(
            0, (0, 0), (9, 7))
        assert leg.fastpath == FASTPATH_OFF
        assert leg.tier == TIER_FULL

    def test_seed_patches_turn_tier_zero_off(self, monkeypatch):
        # The seed-equivalence suite compares against a run whose every
        # leg really searches: under the seed patches no leg enters tier 0.
        for target, name, replacement in seed_planner_patches():
            monkeypatch.setattr(target, name, replacement)
        legs = []
        plan_leg = FallbackChain.plan_leg
        monkeypatch.setattr(
            FallbackChain, "plan_leg",
            lambda chain, *args: legs.append(plan_leg(chain, *args))
            or legs[-1])
        from repro.experiments.harness import run_planner
        run_planner(make_mini(seed=3, n_items=12), "NTP")
        assert legs
        assert {(leg.fastpath, leg.tier)
                for leg in legs} == {(FASTPATH_OFF, TIER_FULL)}

    def test_hit_commits_full_path(self):
        grid = Grid(12, 10)
        cdt = ConflictDetectionTable()
        chain = make_chain(grid, cdt)
        leg = chain.plan_leg(0, (0, 0), (9, 7))
        assert leg.tier == TIER_FREE_FLOW and leg.fastpath == FASTPATH_HIT
        assert leg.commit_path is leg.path
        assert leg.path.duration == 16  # Manhattan-optimal

    def test_finisher_hit_matches_search(self):
        # EATP's tier-0 path: the finisher is consulted at the exact
        # (cell, tick) the full search would first trigger it, and the
        # emitted head+tail equals the search result byte for byte.
        grid = Grid(14, 11)

        def factory_for(reservation):
            def factory(goal):
                return eatp_finisher(grid, reservation, goal, 5)[0], 5
            return factory

        cdt_fast = ConflictDetectionTable()
        chain = make_chain(grid, cdt_fast,
                           finisher_factory=factory_for(cdt_fast))
        leg = chain.plan_leg(0, (0, 0), (13, 10))
        assert leg.tier == TIER_FREE_FLOW
        assert leg.search_stats and leg.search_stats[0].cache_finished

        cdt_ref = ConflictDetectionTable()
        stats = SearchStats()
        reference = find_path(
            grid, cdt_ref, (0, 0), (13, 10), 0,
            heuristic=HeuristicFieldCache(grid).field((13, 10)),
            finisher=eatp_finisher(grid, cdt_ref, (13, 10), 5)[0],
            finisher_trigger=5, stats=stats)
        assert stats.cache_finished
        assert leg.path.steps == reference.steps

    def test_declining_finisher_is_a_miss(self):
        # A finisher that returns None sends the leg to the full search
        # (whose own finisher calls decide), never to a raw descent.
        grid = Grid(12, 10)
        chain = make_chain(grid, ConflictDetectionTable(),
                           finisher_factory=lambda goal: (
                               lambda cell, t: None, 5))
        leg = chain.plan_leg(0, (0, 0), (9, 7))
        assert leg.fastpath == FASTPATH_MISS
        assert leg.tier == TIER_FULL


class TestEndToEndEquivalence:
    """Whole runs are bit-identical with the fast path on and off."""

    @pytest.mark.parametrize("planner", ["NTP", "EATP"])
    def test_deterministic_view_identical(self, planner, monkeypatch):
        from repro.experiments.harness import run_planner
        scenario = make_mini(n_items=40)
        fast = run_planner(scenario, planner)
        monkeypatch.setattr(*tier0_off_patch())
        slow = run_planner(scenario, planner)
        fast_view = deterministic_view(result_to_dict(fast))
        slow_view = deterministic_view(result_to_dict(slow))
        # The runs must agree on everything except the fast-path
        # accounting itself (off reads all-zero by definition).
        assert any(fast_view["metrics"].pop("fastpath").values())
        assert not any(slow_view["metrics"].pop("fastpath").values())
        assert fast_view == slow_view


class TestCountersAndSerialization:
    def run_mini(self):
        from repro.experiments.harness import run_planner
        scenario = make_mini(n_items=30)
        return run_planner(scenario, "NTP")

    def test_tier_histogram_partitions_legs(self):
        scenario = make_mini(n_items=30)
        state, items = scenario.build()
        from repro.sim.engine import Simulation
        planner = PLANNERS["NTP"](state)
        Simulation(state, planner, items).run()
        stats = planner.stats
        assert stats.legs_planned == (stats.legs_free_flow + stats.legs_full
                                      + stats.legs_wait)
        assert stats.legs_free_flow > 0
        # Tier-0 legs run no search: total expansions stay below what
        # the leg count alone would force through the full tier.
        assert (stats.legs_free_flow + stats.fastpath_audit_rejects
                + stats.fastpath_misses) == stats.legs_planned

    def test_fastpath_round_trips_serialization(self):
        result = self.run_mini()
        payload = metrics_to_dict(result.metrics)
        assert payload["fastpath"]["free_flow_legs"] > 0
        rebuilt = metrics_from_dict(payload)
        assert rebuilt.fastpath_view() == result.metrics.fastpath_view()
        # Deterministic view keeps the counters (they are seed-derived,
        # not wall-clock).
        view = deterministic_view(payload)
        assert view["fastpath"] == payload["fastpath"]

    def test_fastpath_stable_across_runs(self):
        first = self.run_mini().metrics.fastpath_view()
        second = self.run_mini().metrics.fastpath_view()
        assert first == second

    def test_matrix_summary_line(self):
        from repro.experiments.matrix import render_fastpath_summary
        payloads = {
            "a": {"result": {"metrics": {"fastpath": {
                "free_flow_legs": 8, "audit_rejects": 1, "misses": 1}}}},
            "b": {"result": {"metrics": {}}},  # pre-fast-path cell
        }
        line = render_fastpath_summary(payloads)
        assert "8/10" in line and "80%" in line
        assert "rescued" not in line
        # Rescued legs are already inside free_flow_legs: reported, but
        # never added to the hit-rate denominator.
        payloads["a"]["result"]["metrics"]["fastpath"]["rescued_legs"] = 3
        line = render_fastpath_summary(payloads)
        assert "8/10" in line and "80%" in line
        assert "3 conflicted descents rescued" in line
        assert "no tier-0 attempts" in render_fastpath_summary(
            {"b": {"result": {"metrics": {}}}})

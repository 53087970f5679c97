"""Equivalence of the packed-integer search core with the frozen seed.

The packed rewrite is a pure mechanical-sympathy change: same expansion
order, same tie breaking, same answers.  These tests pin that down against
the verbatim seed implementations kept in ``repro.pathfinding._legacy`` —
on open floors the paths must be bit-identical (Manhattan equals the exact
field there), on obstructed floors the lengths must match (the exact
field reorders expansions but cannot change optimal cost), and handed the
same exact field as its callable the seed's core must pop exactly the
sequence the python core pops.
"""

import random

import pytest

from repro.experiments.harness import run_planner
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.st_astar import search_kernel_name, set_search_kernel
from repro.pathfinding._legacy import (LegacyConflictDetectionTable,
                                       LegacySpatiotemporalGraph,
                                       legacy_find_path,
                                       seed_planner_patches)
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.conflicts import is_conflict_free
from repro.pathfinding.heuristics import HeuristicFieldCache
from repro.pathfinding.paths import Path
from repro.pathfinding.spatiotemporal_graph import SpatiotemporalGraph
from repro.pathfinding.st_astar import (SEARCH_COMPLETE, SearchRequest,
                                        SearchStats, search)
from repro.warehouse.grid import Grid
from repro.workloads.datasets import make_mini
from tests.conftest import assert_expands_as_seed, popped_states

#: Both search cores must hold the seed equivalences: the pure-python
#: packed rewrite AND (where a compiler is available) the native kernel.
KERNELS = ["python"] + (["compiled"] if build_and_load() else [])


@pytest.fixture(params=KERNELS)
def kernel(request):
    previous = search_kernel_name()
    set_search_kernel(request.param)
    yield request.param
    set_search_kernel(previous)


OPEN_GRID = Grid(14, 11)
WALLED_GRID = Grid(14, 11, blocked=[(7, y) for y in range(11) if y not in (2, 9)])

ENDPOINTS = [((0, 0), (13, 10)), ((13, 0), (0, 10)), ((2, 5), (12, 5)),
             ((5, 9), (9, 1)), ((0, 10), (13, 10))]


def crossing_traffic(table, width, n=8):
    for i in range(n):
        row = 1 + (3 * i) % 9
        cells = [(x, row) for x in range(width)]
        table.reserve_path(Path.from_cells(cells, start_time=2 * i))


def both_tables(grid):
    """A (new, legacy) CDT pair loaded with identical traffic."""
    new, old = ConflictDetectionTable(), LegacyConflictDetectionTable()
    crossing_traffic(new, grid.width)
    crossing_traffic(old, grid.width)
    return new, old


class TestSearchEquivalence:
    @pytest.mark.parametrize("source,goal", ENDPOINTS)
    def test_open_grid_bit_identical(self, kernel, source, goal):
        new_table, old_table = both_tables(OPEN_GRID)
        request = SearchRequest(source, goal, 0)
        new_stats, old_stats = SearchStats(), SearchStats()
        ours = search(OPEN_GRID, new_table, request, stats=new_stats)
        seed, seed_pops = popped_states(
            lambda: legacy_find_path(OPEN_GRID, old_table, source, goal, 0,
                                     stats=old_stats), OPEN_GRID)
        assert ours.status == SEARCH_COMPLETE
        assert ours.path.steps == seed.steps
        assert_expands_as_seed(OPEN_GRID, new_table, request, None,
                               new_stats, seed_pops, old_stats)

    @pytest.mark.parametrize("source,goal", ENDPOINTS)
    def test_obstructed_grid_same_length(self, kernel, source, goal):
        new_table, old_table = both_tables(WALLED_GRID)
        cache = HeuristicFieldCache(WALLED_GRID)
        ours = search(WALLED_GRID, new_table, SearchRequest(source, goal, 0),
                      heuristic=cache.field(goal))
        seed = legacy_find_path(WALLED_GRID, old_table, source, goal, 0)
        assert ours.status == SEARCH_COMPLETE
        assert ours.path.duration == seed.duration
        assert ours.path.source == source and ours.path.goal == goal

    def test_sequential_planning_stays_conflict_free(self, kernel):
        table = ConflictDetectionTable()
        paths = []
        for source, goal in ENDPOINTS:
            outcome = search(OPEN_GRID, table, SearchRequest(source, goal, 0))
            assert outcome.status == SEARCH_COMPLETE
            table.reserve_path(outcome.path)
            paths.append(outcome.path)
        assert is_conflict_free(paths)

    def test_manhattan_default_matches_exact_field_on_open_grid(self, kernel):
        table = ConflictDetectionTable()
        cache = HeuristicFieldCache(OPEN_GRID)
        request = SearchRequest((0, 0), (13, 10), 0)
        default = search(OPEN_GRID, table, request)
        fielded = search(OPEN_GRID, table, request,
                         heuristic=cache.field((13, 10)))
        assert default.status == fielded.status == SEARCH_COMPLETE
        assert default.path.steps == fielded.path.steps

    @pytest.mark.parametrize("seed", range(25))
    def test_exact_field_matches_seed(self, kernel, seed):
        # Over random traffic on open and walled floors, the search with
        # the goal's exact field equals the seed's core handed the same
        # field as its callable heuristic: path, expansions and the
        # expansion order itself, not just the duration the
        # obstructed-floor test checks.
        rng = random.Random(seed)
        grid = OPEN_GRID if seed % 2 else WALLED_GRID
        paths = random_paths(grid, rng, n=12)
        new_table, old_table = both_tables(grid)
        for path in paths:
            new_table.reserve_path(path)
            old_table.reserve_path(path)
        source, goal = ENDPOINTS[seed % len(ENDPOINTS)]
        field = HeuristicFieldCache(grid).field(goal)

        request = SearchRequest(source, goal, 3)
        new_stats, old_stats = SearchStats(), SearchStats()
        ours = search(grid, new_table, request, heuristic=field,
                      stats=new_stats)
        seed_path, seed_pops = popped_states(
            lambda: legacy_find_path(grid, old_table, source, goal, 3,
                                     heuristic=field, stats=old_stats), grid)
        assert ours.status == SEARCH_COMPLETE
        assert ours.path.steps == seed_path.steps
        assert_expands_as_seed(grid, new_table, request, field, new_stats,
                               seed_pops, old_stats)



def random_paths(grid, rng, n=25):
    """Conflict-oblivious random walks to stress reservation bookkeeping."""
    paths = []
    for __ in range(n):
        x, y = rng.randrange(grid.width), rng.randrange(grid.height)
        t0 = rng.randrange(40)
        cells = [(x, y)]
        for __ in range(rng.randrange(3, 14)):
            moves = [c for c in grid.neighbours(cells[-1])] + [cells[-1]]
            cells.append(moves[rng.randrange(len(moves))])
        paths.append(Path.from_cells(cells, start_time=t0))
    return paths


@pytest.mark.parametrize("make_new,make_old", [
    (ConflictDetectionTable, LegacyConflictDetectionTable),
    (lambda: SpatiotemporalGraph(OPEN_GRID),
     lambda: LegacySpatiotemporalGraph(OPEN_GRID)),
], ids=["cdt", "stgraph"])
class TestReservationEquivalence:
    def probe_everywhere(self, new, old, grid, horizon=60):
        for t in range(horizon):
            for x in range(0, grid.width, 2):
                for y in range(0, grid.height, 2):
                    assert new.is_free(t, (x, y)) == old.is_free(t, (x, y))
                    for nxt in grid.neighbours((x, y)):
                        assert (new.move_allowed(t, (x, y), nxt)
                                == old.move_allowed(t, (x, y), nxt))

    def test_probes_match_before_and_after_purge(self, make_new, make_old):
        rng = random.Random(7)
        paths = random_paths(OPEN_GRID, rng)
        new, old = make_new(), make_old()
        for path in paths:
            new.reserve_path(path)
            old.reserve_path(path)
        self.probe_everywhere(new, old, OPEN_GRID)
        for floor in (5, 17, 17, 40):
            new.purge_before(floor)
            old.purge_before(floor)
            self.probe_everywhere(new, old, OPEN_GRID)

    def test_introspection_matches(self, kernel, make_new, make_old):
        new, old = make_new(), make_old()
        rng = random.Random(11)
        for path in random_paths(OPEN_GRID, rng, n=12):
            new.reserve_path(path)
            old.reserve_path(path)
        if not isinstance(new, ConflictDetectionTable):
            # The dense layers the seed allocates are what the graph's
            # accounting rule counts, also across purges and reserves
            # that start below the floor.
            assert new.live_counts()["layers"] == old.n_layers > 0
            for floor in (5, 17, 17, 40, 10 ** 6):
                new.purge_before(floor)
                old.purge_before(floor)
                assert new.live_counts()["layers"] == old.n_layers, floor
                for path in random_paths(OPEN_GRID, rng, n=3):
                    new.reserve_path(path)
                    old.reserve_path(path)
                assert new.live_counts()["layers"] == old.n_layers, floor
            return
        assert new.live_counts()["reservations"] == old.n_reservations
        assert cells_touched(new) == old.n_cells_touched
        assert new.live_counts()["ticks_live"] > 0
        new.purge_before(20)
        old.purge_before(20)
        assert new.live_counts()["reservations"] == old.n_reservations
        assert cells_touched(new) == old.n_cells_touched
        new.purge_before(10 ** 6)
        assert new.live_counts()["ticks_live"] == 0


def cells_touched(table):
    """Cells with at least one live reservation, read off the python
    layout the table's pickle carries."""
    return len(set().union(*table.__getstate__()["_buckets"].values()))


class TestEndToEndEquivalence:
    """A full mini simulation must be unchanged by the packed rewrite."""

    @pytest.mark.parametrize("planner", ["NTP", "EATP"])
    def test_makespan_identical_to_seed_stack(self, kernel, planner, monkeypatch):
        scenario = make_mini(n_items=40)
        packed = run_planner(scenario, planner)

        # Full seed configuration: tuple core, per-leg Manhattan closures,
        # pre-bucketing reservation structures.
        for target, name, replacement in seed_planner_patches():
            monkeypatch.setattr(target, name, replacement)
        seed = run_planner(scenario, planner)

        assert packed.metrics.makespan == seed.metrics.makespan
        assert (packed.metrics.items_processed
                == seed.metrics.items_processed)

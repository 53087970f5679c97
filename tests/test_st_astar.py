"""Unit tests for spatiotemporal A* (conflict-free single-robot search)."""

import pytest

from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.conflicts import is_conflict_free
from repro.pathfinding.paths import Path
from repro.pathfinding.st_astar import (SEARCH_BUDGET, SEARCH_COMPLETE,
                                        SearchRequest, SearchStats, search)
from repro.types import manhattan
from repro.warehouse.grid import Grid
from tests.conftest import assert_expands_as_seed, popped_states


@pytest.fixture
def grid():
    return Grid(12, 10)


@pytest.fixture
def cdt():
    return ConflictDetectionTable()


class TestUnconstrainedSearch:
    def test_same_cell(self, grid, cdt):
        outcome = search(grid, cdt, SearchRequest((3, 3), (3, 3), 7))
        assert outcome.status == SEARCH_COMPLETE
        assert outcome.path.steps == ((7, 3, 3),)

    def test_optimal_when_empty(self, grid, cdt):
        outcome = search(grid, cdt, SearchRequest((0, 0), (6, 4), 0))
        assert outcome.status == SEARCH_COMPLETE
        assert outcome.path.duration == manhattan((0, 0), (6, 4))

    def test_start_time_respected(self, grid, cdt):
        outcome = search(grid, cdt, SearchRequest((0, 0), (3, 0), 42))
        assert outcome.status == SEARCH_COMPLETE
        assert outcome.path.start_time == 42
        assert outcome.path.end_time == 45


class TestConflictAvoidance:
    def test_avoids_reserved_vertex(self, grid, cdt):
        # Another robot sits on (1, 0) at t=1 — ours must wait or detour.
        cdt.reserve_path(Path.from_cells([(1, 0), (1, 0)], start_time=0))
        outcome = search(grid, cdt, SearchRequest((0, 0), (2, 0), 0))
        assert outcome.status == SEARCH_COMPLETE
        blocked = Path.from_cells([(1, 0), (1, 0)], start_time=0)
        assert is_conflict_free([outcome.path, blocked])

    def test_avoids_swap(self, grid, cdt):
        other = Path.from_cells([(2, 0), (1, 0), (0, 0)], start_time=0)
        cdt.reserve_path(other)
        outcome = search(grid, cdt, SearchRequest((0, 0), (3, 0), 0))
        assert outcome.status == SEARCH_COMPLETE
        assert is_conflict_free([outcome.path, other])

    def test_corridor_forces_wait(self, cdt):
        # Single-file corridor: y=0 row of a 5x1-ish grid with walls.
        grid = Grid(5, 3, blocked=[(x, 1) for x in range(1, 4)])
        other = Path.from_cells([(2, 0), (3, 0), (4, 0)], start_time=0)
        cdt.reserve_path(other)
        outcome = search(grid, cdt, SearchRequest((0, 0), (4, 0), 0))
        assert outcome.status == SEARCH_COMPLETE
        assert is_conflict_free([outcome.path, other])
        assert outcome.path.duration >= 4

    def test_many_sequential_paths_mutually_conflict_free(self, grid, cdt):
        paths = []
        endpoints = [((0, 0), (9, 0)), ((9, 0), (0, 0)), ((0, 5), (9, 5)),
                     ((9, 5), (0, 5)), ((5, 0), (5, 9))]
        for source, goal in endpoints:
            outcome = search(grid, cdt, SearchRequest(source, goal, 0))
            assert outcome.status == SEARCH_COMPLETE
            cdt.reserve_path(outcome.path)
            paths.append(outcome.path)
        assert is_conflict_free(paths)


class TestBudgetsAndStats:
    def test_expansion_budget_fails(self, grid, cdt):
        outcome = search(grid, cdt, SearchRequest((0, 0), (11, 9), 0,
                                                  max_expansions=3))
        assert outcome.status == SEARCH_BUDGET
        assert outcome.path is None

    def test_stats_filled(self, grid, cdt):
        stats = SearchStats()
        outcome = search(grid, cdt, SearchRequest((0, 0), (6, 4), 0),
                         stats=stats)
        assert outcome.status == SEARCH_COMPLETE
        assert stats.expansions > 0
        assert stats.generated > 0
        assert stats.peak_open > 0
        assert not stats.cache_finished


class TestDeepWaitChain:
    """A robot out-waiting a multi-thousand-tick blockade: a few thousand
    expansions spread over one time layer per wait tick, so search state
    must cost O(touched states), not O(time depth × cells).
    """

    def make_problem(self):
        # A corridor whose only gap is camped for ~1500 ticks: the full
        # search's optimal plan waits next to the gap, one layer per tick.
        grid = Grid(8, 1)
        cdt = ConflictDetectionTable()
        cdt.reserve_path(Path.waiting((4, 0), 0, 1500))
        return grid, cdt

    def test_deep_search_matches_legacy(self):
        from repro.pathfinding._legacy import (LegacyConflictDetectionTable,
                                               legacy_find_path)
        grid, cdt = self.make_problem()
        request = SearchRequest((0, 0), (7, 0), 0)
        stats = SearchStats()
        outcome = search(grid, cdt, request, stats=stats)
        assert outcome.status == SEARCH_COMPLETE
        path = outcome.path
        legacy_cdt = LegacyConflictDetectionTable()
        legacy_cdt.reserve_path(Path.waiting((4, 0), 0, 1500))
        legacy_stats = SearchStats()
        legacy, legacy_pops = popped_states(
            lambda: legacy_find_path(grid, legacy_cdt, (0, 0), (7, 0), 0,
                                     stats=legacy_stats), grid)
        assert path.steps == legacy.steps
        assert path.duration > 1500  # it really out-waited the blockade
        assert_expands_as_seed(grid, cdt, request, None, stats, legacy_pops,
                               legacy_stats)


class TestFinisherHook:
    """The cache-aided finisher is a trigger, not a callable: the search
    walks the field's descent with waits from every pop inside the band
    and reports where each walk started."""

    def run(self, grid, cdt, trigger, goal=(6, 0)):
        stats = SearchStats()
        outcome = search(grid, cdt, SearchRequest((0, 0), goal, 0,
                                                  finisher_trigger=trigger),
                         stats=stats)
        return outcome, stats

    def test_finisher_short_circuits(self, grid, cdt):
        outcome, stats = self.run(grid, cdt, 3)
        assert stats.cache_finished
        # the first pop inside the band walks, and arrives
        assert list(outcome.finisher_starts) == [(3, 0)]
        assert outcome.path.goal == (6, 0)
        assert outcome.path.duration == 6  # still optimal here

    def test_finisher_returning_none_continues(self, grid, cdt):
        # (5, 0) is camped past the walk's 64-tick cap: the walk from
        # (3, 0) declines and the search carries on round the camp,
        # until a later walk from inside the band arrives.
        camp = Path.waiting((5, 0), 0, 200)
        cdt.reserve_path(camp)
        outcome, stats = self.run(grid, cdt, 3)
        assert outcome.finisher_starts[0] == (3, 0)
        assert len(outcome.finisher_starts) > 1
        assert stats.cache_finished
        assert outcome.path.goal == (6, 0)
        assert is_conflict_free([outcome.path, camp])

    def test_trigger_zero_disables(self, grid, cdt):
        outcome, stats = self.run(grid, cdt, 0)
        assert not stats.cache_finished
        assert not outcome.finisher_starts
        assert outcome.path.goal == (6, 0)

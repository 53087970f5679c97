"""Unit tests for spatiotemporal A* (conflict-free single-robot search)."""

import pytest

from repro.errors import PathNotFoundError
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.conflicts import is_conflict_free
from repro.pathfinding.paths import Path
from repro.pathfinding.st_astar import SearchStats, find_path
from repro.types import manhattan
from repro.warehouse.grid import Grid


@pytest.fixture
def grid():
    return Grid(12, 10)


@pytest.fixture
def cdt():
    return ConflictDetectionTable()


class TestUnconstrainedSearch:
    def test_same_cell(self, grid, cdt):
        path = find_path(grid, cdt, (3, 3), (3, 3), start_time=7)
        assert path.steps == ((7, 3, 3),)

    def test_optimal_when_empty(self, grid, cdt):
        path = find_path(grid, cdt, (0, 0), (6, 4), start_time=0)
        assert path.duration == manhattan((0, 0), (6, 4))

    def test_start_time_respected(self, grid, cdt):
        path = find_path(grid, cdt, (0, 0), (3, 0), start_time=42)
        assert path.start_time == 42
        assert path.end_time == 45


class TestConflictAvoidance:
    def test_avoids_reserved_vertex(self, grid, cdt):
        # Another robot sits on (1, 0) at t=1 — ours must wait or detour.
        cdt.reserve_path(Path.from_cells([(1, 0), (1, 0)], start_time=0))
        ours = find_path(grid, cdt, (0, 0), (2, 0), start_time=0)
        blocked = Path.from_cells([(1, 0), (1, 0)], start_time=0)
        assert is_conflict_free([ours, blocked])

    def test_avoids_swap(self, grid, cdt):
        other = Path.from_cells([(2, 0), (1, 0), (0, 0)], start_time=0)
        cdt.reserve_path(other)
        ours = find_path(grid, cdt, (0, 0), (3, 0), start_time=0)
        assert is_conflict_free([ours, other])

    def test_corridor_forces_wait(self, cdt):
        # Single-file corridor: y=0 row of a 5x1-ish grid with walls.
        grid = Grid(5, 3, blocked=[(x, 1) for x in range(1, 4)])
        other = Path.from_cells([(2, 0), (3, 0), (4, 0)], start_time=0)
        cdt.reserve_path(other)
        ours = find_path(grid, cdt, (0, 0), (4, 0), start_time=0)
        assert is_conflict_free([ours, other])
        assert ours.duration >= 4

    def test_many_sequential_paths_mutually_conflict_free(self, grid, cdt):
        paths = []
        endpoints = [((0, 0), (9, 0)), ((9, 0), (0, 0)), ((0, 5), (9, 5)),
                     ((9, 5), (0, 5)), ((5, 0), (5, 9))]
        for source, goal in endpoints:
            path = find_path(grid, cdt, source, goal, start_time=0)
            cdt.reserve_path(path)
            paths.append(path)
        assert is_conflict_free(paths)


class TestBudgetsAndStats:
    def test_expansion_budget_raises(self, grid, cdt):
        with pytest.raises(PathNotFoundError):
            find_path(grid, cdt, (0, 0), (11, 9), start_time=0,
                      max_expansions=3)

    def test_stats_filled(self, grid, cdt):
        stats = SearchStats()
        find_path(grid, cdt, (0, 0), (6, 4), start_time=0, stats=stats)
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
        stats = SearchStats()
        path = find_path(grid, cdt, (0, 0), (7, 0), 0, stats=stats)
        legacy_cdt = LegacyConflictDetectionTable()
        legacy_cdt.reserve_path(Path.waiting((4, 0), 0, 1500))
        legacy_stats = SearchStats()
        legacy = legacy_find_path(grid, legacy_cdt, (0, 0), (7, 0), 0,
                                  stats=legacy_stats)
        assert path.steps == legacy.steps
        assert path.duration > 1500  # it really out-waited the blockade
        assert stats.expansions == legacy_stats.expansions
        assert stats.generated == legacy_stats.generated
        assert stats.peak_open == legacy_stats.peak_open


class TestFinisherHook:
    def test_finisher_short_circuits(self, grid, cdt):
        calls = []

        def finisher(cell, t):
            calls.append((cell, t))
            # Walk straight along x toward (6, 0).
            steps = [(t, cell[0], cell[1])]
            x = cell[0]
            while x < 6:
                x += 1
                steps.append((steps[-1][0] + 1, x, 0))
            return steps

        stats = SearchStats()
        path = find_path(grid, cdt, (0, 0), (6, 0), start_time=0,
                         finisher=finisher, finisher_trigger=3, stats=stats)
        assert stats.cache_finished
        assert calls, "finisher should have been invoked"
        assert path.goal == (6, 0)
        assert path.duration == 6  # still optimal here

    def test_finisher_returning_none_continues(self, grid, cdt):
        stats = SearchStats()
        path = find_path(grid, cdt, (0, 0), (6, 0), start_time=0,
                         finisher=lambda cell, t: None, finisher_trigger=3,
                         stats=stats)
        assert not stats.cache_finished
        assert path.goal == (6, 0)

    def test_trigger_zero_disables(self, grid, cdt):
        def exploding(cell, t):  # pragma: no cover - must never run
            raise AssertionError("finisher must not fire with trigger 0")

        path = find_path(grid, cdt, (0, 0), (6, 0), start_time=0,
                         finisher=exploding, finisher_trigger=0)
        assert path.goal == (6, 0)

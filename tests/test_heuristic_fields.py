"""Property tests for the cached exact heuristic fields.

A* optimality (and the bit-identity claims of the packed core) rest on the
fields being *admissible* (never overestimate the true remaining distance)
and *consistent* (change by at most 1 across an edge).  Both are checked
exhaustively on a mix of open and obstructed floors, alongside the cache
bookkeeping the planners rely on.
"""

import pytest

from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.heuristics import (HeuristicField, HeuristicFieldCache,
                                          manhattan_heuristic)
from repro.pathfinding.st_astar import SearchRequest, search
from repro.types import manhattan
from repro.warehouse.grid import Grid

GRIDS = {
    "open": Grid(9, 7),
    "walled": Grid(9, 7, blocked=[(4, y) for y in range(7) if y != 5]),
    "pillars": Grid(10, 10, blocked=[(x, y) for x in (2, 5, 8)
                                     for y in (2, 5, 8)]),
}


@pytest.fixture(params=sorted(GRIDS))
def grid(request):
    return GRIDS[request.param]


def passable_cells(grid):
    return list(grid.cells())


class TestFieldProperties:
    def test_zero_at_goal(self, grid):
        for goal in passable_cells(grid)[::5]:
            assert HeuristicField(grid, goal)(goal) == 0

    def test_admissible_everywhere(self, grid):
        goal = passable_cells(grid)[-1]
        field = HeuristicField(grid, goal)
        for cell in passable_cells(grid):
            h = field(cell)
            if h > grid.n_cells:
                continue  # unreachable marker
            assert h == grid.distance_flat(cell)[grid.cell_index(goal)]

    def test_dominates_manhattan(self, grid):
        """Exact fields are at least as tight as the paper's h-value."""
        goal = passable_cells(grid)[0]
        field = HeuristicField(grid, goal)
        for cell in passable_cells(grid):
            assert field(cell) >= manhattan(cell, goal)

    def test_consistent_across_edges(self, grid):
        goal = passable_cells(grid)[-1]
        field = HeuristicField(grid, goal)
        infinity = grid.n_cells + 1
        for cell in passable_cells(grid):
            h = field(cell)
            for nxt in grid.neighbours(cell):
                hn = field(nxt)
                if h == infinity or hn == infinity:
                    # Adjacent passable cells reach the goal together or
                    # not at all.
                    assert h == infinity and hn == infinity
                else:
                    # |h(a) - h(b)| <= cost(a, b) = 1.
                    assert abs(h - hn) <= 1

    def test_unreachable_marked_infinite(self):
        grid = Grid(6, 4, blocked=[(3, y) for y in range(4)])
        field = HeuristicField(grid, (0, 0))
        assert field((5, 0)) == grid.n_cells + 1

    def test_wrong_grid_field_rejected(self):
        # Same cell count, different height — silent misindexing trap.
        field = HeuristicField(Grid(9, 7), (0, 0))
        other = Grid(7, 9)
        with pytest.raises(ValueError, match="different grid"):
            search(other, ConflictDetectionTable(),
                   SearchRequest((0, 0), (6, 8), 0), heuristic=field)

    def test_flat_layout_matches_callable(self, grid):
        goal = passable_cells(grid)[-1]
        field = HeuristicField(grid, goal)
        for (x, y) in passable_cells(grid):
            assert field.flat[x * grid.height + y] == field((x, y))


class TestLazyManhattanField:
    """The unobstructed paper-scale floor's field is computed per lookup;
    it must index like the eager buffer ``grid.distance_flat`` builds."""

    def test_indexes_like_the_eager_buffer(self):
        grid = Grid(541, 302)
        flat = HeuristicField(grid, (3, 4)).flat
        eager = grid.distance_flat((3, 4), unreached=grid.n_cells + 1)
        assert type(flat) is not type(eager)  # the lazy field is served
        n_cells = len(eager)
        assert len(flat) == n_cells
        for ci in (0, 1, 302, n_cells // 2, n_cells - 1, -1, -302,
                   -n_cells):
            assert flat[ci] == eager[ci], ci
        for ci in (n_cells, n_cells + 7, -n_cells - 1):
            with pytest.raises(IndexError):
                flat[ci]
        assert list(flat) == list(eager)


class TestFieldCache:
    def test_field_reused_per_goal(self, grid):
        cache = HeuristicFieldCache(grid)
        goal = passable_cells(grid)[0]
        assert cache.field(goal) is cache.field(goal)
        assert len(cache) == 1

    def test_distance_helper(self, grid):
        cache = HeuristicFieldCache(grid)
        cells = passable_cells(grid)
        source, goal = cells[0], cells[-1]
        assert (cache.field(goal)(source)
                == grid.distance_flat(source)[grid.cell_index(goal)])

    def test_memory_reported(self, grid):
        cache = HeuristicFieldCache(grid)
        assert cache.memory_bytes() == 0
        field = cache.field(passable_cells(grid)[0])
        # One int32 buffer: 4 B per cell + header — and the ledger must
        # charge the bytes the buffer actually holds.
        assert cache.memory_bytes() == 64 + 4 * grid.n_cells
        assert field.nbytes == 64 + 4 * len(field.flat)


class TestHeuristics:
    def test_manhattan_heuristic(self):
        h = manhattan_heuristic((5, 5))
        assert h((5, 5)) == 0
        assert h((0, 0)) == 10

    def test_cache_reuses_tables(self, small_grid):
        cache = HeuristicFieldCache(small_grid)
        cache.field((5, 5))
        cache.field((5, 5))
        assert len(cache) == 1
        cache.field((1, 1))
        assert len(cache) == 2

    def test_cache_distance(self, blocked_grid):
        cache = HeuristicFieldCache(blocked_grid)
        assert (cache.field((6, 0))((4, 0))
                == blocked_grid.distance_flat((4, 0))[
                    blocked_grid.cell_index((6, 0))])

    def test_cache_distance_matches_bfs(self, blocked_grid):
        bfs = blocked_grid.distance_flat((0, 0))
        cache = HeuristicFieldCache(blocked_grid)
        for goal in [(9, 7), (6, 0), (5, 6)]:
            assert (cache.field(goal)((0, 0))
                    == bfs[blocked_grid.cell_index(goal)])

    def test_cache_memory_grows(self, small_grid):
        cache = HeuristicFieldCache(small_grid)
        empty = cache.memory_bytes()
        cache.field((5, 5))
        assert cache.memory_bytes() > empty

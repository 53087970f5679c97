"""Unit tests for the warehouse grid."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.errors import InvalidLocationError
from repro.types import manhattan
from repro.warehouse.grid import Grid
from tests.conftest import assert_rows_match_neighbours


class TestConstruction:
    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(InvalidLocationError):
            Grid(0, 5)
        with pytest.raises(InvalidLocationError):
            Grid(5, -1)

    def test_rejects_out_of_bounds_blocked_cell(self):
        with pytest.raises(InvalidLocationError):
            Grid(4, 4, blocked=[(4, 0)])

    def test_n_cells(self):
        assert Grid(7, 3).n_cells == 21


class TestPassability:
    def test_in_bounds_corners(self, small_grid):
        assert small_grid.in_bounds((0, 0))
        assert small_grid.in_bounds((9, 7))
        assert not small_grid.in_bounds((10, 0))
        assert not small_grid.in_bounds((0, -1))

    def test_blocked_cells_not_passable(self, blocked_grid):
        assert not blocked_grid.passable((5, 0))
        assert blocked_grid.passable((5, 6))

    def test_require_passable_raises(self, blocked_grid):
        with pytest.raises(InvalidLocationError):
            blocked_grid.require_passable((5, 0))
        blocked_grid.require_passable((0, 0))  # no raise

    def test_blocked_cells_property_immutable_view(self, blocked_grid):
        blocked = blocked_grid.blocked_cells
        assert (5, 0) in blocked
        assert isinstance(blocked, frozenset)


class TestNeighbours:
    def test_interior_cell_has_four(self, small_grid):
        assert len(list(small_grid.neighbours((4, 4)))) == 4

    def test_corner_cell_has_two(self, small_grid):
        assert len(list(small_grid.neighbours((0, 0)))) == 2

    def test_neighbours_exclude_blocked(self, blocked_grid):
        neighbours = set(blocked_grid.neighbours((4, 3)))
        assert (5, 3) not in neighbours
        assert (3, 3) in neighbours

    def test_cells_iterates_passable_only(self, blocked_grid):
        cells = list(blocked_grid.cells())
        assert len(cells) == blocked_grid.n_cells - 6
        assert (5, 0) not in cells


class TestDistances:
    def test_bfs_matches_manhattan_on_open_grid(self, small_grid):
        dist = small_grid.distance_flat((2, 3))
        for x in range(small_grid.width):
            for y in range(small_grid.height):
                assert (dist[small_grid.cell_index((x, y))]
                        == manhattan((2, 3), (x, y)))

    def test_bfs_detours_around_wall(self, blocked_grid):
        dist = blocked_grid.distance_flat((4, 0))
        # (6, 0) is just across the wall: must detour through the gap at y=6.
        assert (dist[blocked_grid.cell_index((6, 0))]
                > manhattan((4, 0), (6, 0)))

    def test_bfs_marks_unreachable(self):
        # Wall the whole column: right side unreachable from left.
        grid = Grid(5, 3, blocked=[(2, y) for y in range(3)])
        dist = grid.distance_flat((0, 0))
        assert dist[grid.cell_index((4, 0))] == -1

    def test_connected(self, blocked_grid):
        # Connectivity reads off the flood: a cell is reached or carries
        # the sentinel, and a blocked cell is never reached.
        dist = blocked_grid.distance_flat((0, 0))
        assert dist[blocked_grid.cell_index((9, 7))] >= 0
        grid = Grid(5, 3, blocked=[(2, y) for y in range(3)])
        dist = grid.distance_flat((0, 0))
        assert dist[grid.cell_index((4, 0))] == -1
        assert dist[grid.cell_index((2, 0))] == -1

    def test_bfs_requires_passable_source(self, blocked_grid):
        with pytest.raises(InvalidLocationError):
            blocked_grid.distance_flat((5, 0))


class TestEquality:
    def test_equal_grids(self):
        assert Grid(4, 4, blocked=[(1, 1)]) == Grid(4, 4, blocked=[(1, 1)])

    def test_unequal_blocked_sets(self):
        assert Grid(4, 4) != Grid(4, 4, blocked=[(1, 1)])

    def test_hashable(self):
        assert len({Grid(4, 4), Grid(4, 4)}) == 1


class TestPackedTables:
    def test_paper_floor_build_creates_no_per_cell_object(self):
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            grid = Grid(541, 302)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grid.cell_keys.typecode == "q"
        assert len(grid.cell_keys) == grid.n_cells
        assert not grid.adjacency          # no row until a python loop reads
        assert retained < 4 << 20          # the eager tables took 92 MB

    @settings(max_examples=60, deadline=None)
    @given(width=hyp.integers(1, 9), height=hyp.integers(1, 9),
           data=hyp.data())
    def test_rows_match_neighbours_on_random_masks(self, width, height, data):
        cells = [(x, y) for x in range(width) for y in range(height)]
        blocked = data.draw(hyp.sets(hyp.sampled_from(cells)))
        grid = Grid(width, height, blocked=blocked)
        assert_rows_match_neighbours(grid)
        for cell in blocked:
            assert grid.adjacency[grid.cell_index(cell)] == ()

    def test_rows_are_memoised_and_bounded(self, blocked_grid):
        row = blocked_grid.adjacency[0]
        assert blocked_grid.adjacency[0] is row
        assert list(blocked_grid.adjacency) == [0]
        for ci in (-1, blocked_grid.n_cells):
            with pytest.raises(IndexError):
                blocked_grid.adjacency[ci]

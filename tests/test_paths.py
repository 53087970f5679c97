"""Unit tests for the timed Path structure."""

import pytest

from repro.errors import ConflictError
from repro.pathfinding.paths import Path


class TestConstruction:
    def test_from_cells(self):
        path = Path.from_cells([(0, 0), (1, 0), (1, 1)], start_time=5)
        assert path.start_time == 5
        assert path.end_time == 7
        assert path.source == (0, 0)
        assert path.goal == (1, 1)
        assert path.duration == 2

    def test_waiting(self):
        path = Path.waiting((3, 3), start_time=2, duration=4)
        assert path.duration == 4
        assert all(cell == (3, 3) for cell in path.spatial_cells())

    def test_zero_duration_wait(self):
        path = Path.waiting((3, 3), start_time=2, duration=0)
        assert len(path) == 1

    def test_rejects_negative_wait(self):
        with pytest.raises(ConflictError):
            Path.waiting((3, 3), start_time=0, duration=-1)

    def test_rejects_empty(self):
        with pytest.raises(ConflictError):
            Path(())

    def test_rejects_time_gap(self):
        with pytest.raises(ConflictError):
            Path(((0, 0, 0), (2, 0, 1)))

    def test_rejects_diagonal_jump(self):
        with pytest.raises(ConflictError):
            Path(((0, 0, 0), (1, 1, 1)))

    def test_rejects_long_jump(self):
        with pytest.raises(ConflictError):
            Path(((0, 0, 0), (1, 3, 0)))

    def test_wait_step_allowed(self):
        Path(((0, 2, 2), (1, 2, 2), (2, 3, 2)))


class TestCellAt:
    def test_within_span(self):
        path = Path.from_cells([(0, 0), (1, 0), (2, 0)], start_time=10)
        assert path.cell_at(11) == (1, 0)

    def test_clamps_before_start(self):
        path = Path.from_cells([(0, 0), (1, 0)], start_time=10)
        assert path.cell_at(0) == (0, 0)

    def test_clamps_after_end(self):
        path = Path.from_cells([(0, 0), (1, 0)], start_time=10)
        assert path.cell_at(99) == (1, 0)


class TestConcat:
    def test_joins_contiguous_legs(self):
        a = Path.from_cells([(0, 0), (1, 0)], start_time=0)
        b = Path.from_cells([(1, 0), (1, 1)], start_time=1)
        joined = a.concat(b)
        assert joined.source == (0, 0)
        assert joined.goal == (1, 1)
        assert joined.end_time == 2
        assert len(joined) == 3

    def test_rejects_time_mismatch(self):
        a = Path.from_cells([(0, 0), (1, 0)], start_time=0)
        b = Path.from_cells([(1, 0), (1, 1)], start_time=5)
        with pytest.raises(ConflictError):
            a.concat(b)

    def test_rejects_cell_mismatch(self):
        a = Path.from_cells([(0, 0), (1, 0)], start_time=0)
        b = Path.from_cells([(2, 0), (2, 1)], start_time=1)
        with pytest.raises(ConflictError):
            a.concat(b)

    def test_rejects_seam_that_is_only_adjacent(self):
        # concat validates the seam alone (its halves are already
        # validated paths), so the seam check must stay strict: a leg
        # starting one lawful move away, not on the shared step, is
        # still refused.
        a = Path.from_cells([(0, 0), (1, 0)], start_time=0)
        for start_time in (1, 2):
            b = Path.from_cells([(1, 1), (1, 2)], start_time=start_time)
            with pytest.raises(ConflictError):
                a.concat(b)

    def test_seam_only_products_equal_fully_validated_paths(self):
        a = Path.from_cells([(0, 0), (1, 0)], start_time=0)
        b = Path.from_cells([(1, 0), (1, 0), (1, 1)], start_time=1)
        joined = a.concat(b)
        assert joined == Path(joined.steps)
        with pytest.raises(ConflictError):  # the constructor still walks
            Path(joined.steps[:1] + joined.steps[2:])


class TestIteration:
    def test_iter_yields_timed_cells(self):
        path = Path.from_cells([(4, 4), (4, 5)], start_time=7)
        assert list(path) == [(7, 4, 4), (8, 4, 5)]

    def test_len(self):
        assert len(Path.waiting((0, 0), 0, 9)) == 10


class TestCellsBetween:
    def path(self):
        return Path.from_cells([(0, 0), (1, 0), (1, 1), (2, 1)], start_time=10)

    def test_full_span(self):
        assert self.path().cells_between(10, 13) == [(0, 0), (1, 0), (1, 1),
                                                     (2, 1)]

    def test_interior_slice(self):
        assert self.path().cells_between(11, 12) == [(1, 0), (1, 1)]

    def test_clamps_before_start(self):
        assert self.path().cells_between(8, 11) == [(0, 0), (0, 0), (0, 0),
                                                    (1, 0)]

    def test_clamps_after_end(self):
        assert self.path().cells_between(12, 15) == [(1, 1), (2, 1), (2, 1),
                                                     (2, 1)]

    def test_entirely_outside(self):
        assert self.path().cells_between(0, 2) == [(0, 0)] * 3
        assert self.path().cells_between(20, 21) == [(2, 1)] * 2

    def test_single_tick_equals_cell_at(self):
        path = self.path()
        for t in range(5, 20):
            assert path.cells_between(t, t) == [path.cell_at(t)]

    def test_matches_per_tick_cell_at(self):
        path = self.path()
        for t0 in range(6, 18):
            for t1 in range(t0, 18):
                assert path.cells_between(t0, t1) == [
                    path.cell_at(t) for t in range(t0, t1 + 1)]

    def test_rejects_empty_span(self):
        with pytest.raises(ConflictError):
            self.path().cells_between(12, 11)

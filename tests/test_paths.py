"""Unit tests for the timed Path structure.

A path is stored packed (start tick + one ``array('q')`` of cell keys)
and read as ``(t, x, y)`` tuples; the property half of this file holds
the packed class to the plain tuple implementation it replaced.
"""

import pickle
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as hyp

from repro.errors import ConflictError
from repro.pathfinding.paths import Path, packed_path


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


# -- packed storage against the tuple implementation -------------------------


@hyp.composite
def timed_steps(draw):
    """A lawful ``(t, x, y)`` walk: waits and unit moves, clamped at 0."""
    t = draw(hyp.integers(-5, 30_000))
    x, y = draw(hyp.integers(0, 600)), draw(hyp.integers(0, 600))
    steps = [(t, x, y)]
    for dx, dy in draw(hyp.lists(
            hyp.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]),
            max_size=40)):
        x, y, t = max(x + dx, 0), max(y + dy, 0), t + 1
        steps.append((t, x, y))
    return tuple(steps)


def tuple_cell_at(steps, t):
    """``Path.cell_at`` as it read the ``steps`` tuple."""
    if t <= steps[0][0]:
        return steps[0][1:]
    if t >= steps[-1][0]:
        return steps[-1][1:]
    return steps[t - steps[0][0]][1:]


class TestPackedAgainstTuples:
    @given(steps=timed_steps())
    def test_round_trip_equality_and_hash(self, steps):
        path = Path(steps)
        assert path.steps == steps and tuple(path) == steps
        assert len(path) == len(steps)
        assert path.keys.typecode == "q" and path.keys.itemsize == 8
        again = Path(path.steps)
        wrapped = packed_path(path.start_time, array("q", path.keys))
        assert again == path == wrapped
        assert hash(again) == hash(path) == hash(wrapped)
        assert wrapped.steps == steps
        if len(steps) > 1:
            assert Path(steps[1:]) != path and Path(steps[:-1]) != path

    @given(steps=timed_steps(), offset=hyp.integers(-4, 45),
           span=hyp.integers(0, 50))
    def test_accessors_equal_the_tuple_implementation(self, steps, offset,
                                                      span):
        path = Path(steps)
        assert path.start_time == steps[0][0]
        assert path.end_time == steps[-1][0]
        assert path.duration == steps[-1][0] - steps[0][0]
        assert path.source == steps[0][1:] and path.goal == steps[-1][1:]
        assert path.spatial_cells() == [(x, y) for __, x, y in steps]
        t_from = steps[0][0] + offset
        assert path.cell_at(t_from) == tuple_cell_at(steps, t_from)
        assert path.cells_between(t_from, t_from + span) == [
            tuple_cell_at(steps, t) for t in range(t_from, t_from + span + 1)]

    @given(steps=timed_steps(), data=hyp.data())
    def test_concat_equals_the_tuple_join(self, steps, data):
        seam = data.draw(hyp.integers(0, len(steps) - 1))
        joined = Path(steps[:seam + 1]).concat(Path(steps[seam:]))
        assert joined == Path(steps) and joined.steps == steps

    @given(steps=timed_steps())
    def test_pickles_packed_smaller_than_the_tuple_form(self, steps):
        path = Path(steps)
        blob = pickle.dumps(path, protocol=4)
        assert pickle.loads(blob) == path
        assert pickle.loads(blob).steps == steps

        class TupleForm:
            """Pickles as ``Path`` did while it stored ``steps``."""
            def __reduce__(self):
                return object.__new__, (Path,), {"steps": steps}

        if len(steps) > 8:
            assert len(blob) < len(pickle.dumps(TupleForm(), protocol=4))

    def test_is_immutable(self):
        path = Path.waiting((1, 1), 0, 2)
        with pytest.raises(AttributeError):
            path.start_time = 3
        with pytest.raises(AttributeError):
            del path.keys


class TestRejectsWhatAKeyCannotHold:
    @pytest.mark.parametrize("steps", [
        ((0, -1, 0),), ((0, 0, -1), (1, 0, 0)),
        ((0, 65_536, 0),), ((0, 0, 65_535), (1, 0, 65_536)),
        ((0, 1.0, 0),), ((0, 0, None),), ((0, "1", 0),),
        ((0.0, 0, 0),), ((0, 0), (1, 0)), ((0, 0, 0, 0),), (5,),
        # one tick, key + 1: the next column's first cell, not a neighbour
        ((0, 0, 65_535), (1, 1, 0)),
    ])
    def test_path_constructor(self, steps):
        with pytest.raises(ConflictError):
            Path(steps)

    @pytest.mark.parametrize("cells", [
        [(0, 70_000)], [(-3, 2)], [(0, 0), (0, 0.5)], [(0, 0), (1, 1)],
        [(0, 0, 0)], [],
    ])
    def test_from_cells(self, cells):
        with pytest.raises(ConflictError):
            Path.from_cells(cells, start_time=0)

    @pytest.mark.parametrize("cell", [(-1, 0), (0, 65_536), (0.5, 0)])
    def test_waiting(self, cell):
        with pytest.raises(ConflictError):
            Path.waiting(cell, start_time=0, duration=3)

    def test_the_largest_floor_corner_is_a_cell(self):
        path = Path.from_cells([(65_535, 65_534), (65_535, 65_535)], 7)
        assert path.goal == (65_535, 65_535)
        assert path.steps == ((7, 65_535, 65_534), (8, 65_535, 65_535))

"""Unit tests for the conflict definitions (paper Sec. II, Fig. 3)."""

from repro.pathfinding.conflicts import (Conflict, ConflictKind,
                                         find_conflicts, is_conflict_free,
                                         paths_conflict)
from repro.pathfinding.paths import Path


def P(cells, t0=0):
    return Path.from_cells(cells, start_time=t0)


class TestSingleGridConflict:
    def test_same_cell_same_time(self):
        a = P([(0, 0), (1, 0)])
        b = P([(2, 0), (1, 0)])
        conflicts = find_conflicts([a, b])
        assert len(conflicts) == 1
        assert conflicts[0].kind is ConflictKind.SINGLE_GRID
        assert conflicts[0].time == 1
        assert conflicts[0].cell == (1, 0)

    def test_same_cell_different_time_ok(self):
        a = P([(0, 0), (1, 0)])
        b = P([(1, 0), (2, 0)], t0=2)
        assert is_conflict_free([a, b])

    def test_crossing_paths_without_meeting_ok(self):
        a = P([(0, 0), (1, 0), (2, 0)])
        b = P([(1, 1), (1, 0)], t0=3)  # uses (1,0) later
        assert is_conflict_free([a, b])

    def test_stationary_overlap(self):
        a = Path.waiting((5, 5), 0, 3)
        b = P([(4, 5), (5, 5)])
        assert paths_conflict(a, b)


class TestInterGridConflict:
    def test_swap_detected(self):
        a = P([(0, 0), (1, 0)])
        b = P([(1, 0), (0, 0)])
        conflicts = find_conflicts([a, b])
        kinds = {c.kind for c in conflicts}
        assert ConflictKind.INTER_GRID in kinds

    def test_follow_is_not_swap(self):
        # b follows a one step behind: no swap, no overlap.
        a = P([(1, 0), (2, 0), (3, 0)])
        b = P([(0, 0), (1, 0), (2, 0)])
        assert is_conflict_free([a, b])

    def test_swap_at_later_time(self):
        a = P([(0, 0), (0, 0), (1, 0)])
        b = P([(1, 0), (1, 0), (0, 0)])
        conflicts = find_conflicts([a, b])
        assert any(c.kind is ConflictKind.INTER_GRID for c in conflicts)

    def test_perpendicular_cross_without_swap_ok(self):
        a = P([(1, 0), (1, 1)])
        b = P([(0, 1), (1, 1)], t0=1)
        assert is_conflict_free([a, b])


class TestFindConflictsGeneral:
    def test_empty_input(self):
        assert find_conflicts([]) == []

    def test_single_path_never_conflicts(self):
        assert is_conflict_free([P([(0, 0), (1, 0), (1, 1)])])

    def test_indices_reported(self):
        a = P([(0, 0), (1, 0)])
        b = P([(5, 5), (5, 6)])
        c = P([(2, 0), (1, 0)])
        conflicts = find_conflicts([a, b, c])
        assert len(conflicts) == 1
        assert (conflicts[0].first, conflicts[0].second) == (0, 2)

    def test_three_way_collision_reports_pairs(self):
        a = P([(0, 0), (1, 0)])
        b = P([(2, 0), (1, 0)])
        c = P([(1, 1), (1, 0)])
        conflicts = find_conflicts([a, b, c])
        assert len(conflicts) >= 2

"""Unit tests for the tabular action-value function."""

import pickle

from repro.rl.mdp import ACTION_REQUEST, ACTION_WAIT
from repro.rl.qtable import QTable


class TestDefaults:
    def test_unvisited_returns_initial(self):
        table = QTable(initial_value=0.0)
        assert table.get((0, 0), ACTION_WAIT) == 0.0

    def test_custom_initial_value(self):
        table = QTable(initial_value=-5.0)
        assert table.get((9, 9), ACTION_REQUEST) == -5.0


class TestSetGet:
    def test_roundtrip(self):
        table = QTable()
        table.set((1, 2), ACTION_REQUEST, -42.5)
        assert table.get((1, 2), ACTION_REQUEST) == -42.5
        assert table.get((1, 2), ACTION_WAIT) == 0.0

    def test_len_counts_entries(self):
        table = QTable()
        table.set((0, 0), ACTION_WAIT, 1.0)
        table.set((0, 0), ACTION_REQUEST, 2.0)
        table.set((1, 0), ACTION_WAIT, 3.0)
        assert len(table) == 3

    def test_iteration(self):
        table = QTable()
        table.set((0, 0), ACTION_WAIT, 1.0)
        entries = dict(table)
        assert entries[((0, 0), ACTION_WAIT)] == 1.0


class TestBest:
    def test_best_value(self):
        table = QTable()
        table.set((0, 0), ACTION_WAIT, -3.0)
        table.set((0, 0), ACTION_REQUEST, -1.0)
        assert table.best_value((0, 0)) == -1.0

    def test_memory_grows_with_entries(self):
        table = QTable()
        empty = table.memory_bytes()
        table.set((0, 0), ACTION_WAIT, 1.0)
        assert table.memory_bytes() > empty


class TestRows:
    """One row per state holds both actions; only the (state, action)
    entries actually written count for ``len``, iteration and MC."""

    def test_wait_only_writes(self):
        table = QTable()
        table.set((0, 0), ACTION_WAIT, -1.0)
        table.set((0, 0), ACTION_WAIT, -2.0)   # a rewrite is no new entry
        table.set((3, 1), ACTION_WAIT, -4.0)
        assert len(table) == 2
        assert dict(table) == {((0, 0), ACTION_WAIT): -2.0,
                               ((3, 1), ACTION_WAIT): -4.0}
        assert table.memory_bytes() == 64 + 150 * 2
        assert table.get((0, 0), ACTION_REQUEST) == table.initial_value
        assert table.best_value((0, 0)) == table.initial_value

    def test_request_only_writes(self):
        table = QTable(initial_value=-9.0)
        table.set((2, 2), ACTION_REQUEST, -3.5)
        assert len(table) == 1
        assert list(table) == [(((2, 2), ACTION_REQUEST), -3.5)]
        assert table.memory_bytes() == 64 + 150
        assert table.get((2, 2), ACTION_WAIT) == -9.0
        assert table.best_value((2, 2)) == -3.5

    def test_both_actions_of_a_state(self):
        table = QTable()
        table.set((1, 1), ACTION_REQUEST, -5.0)
        table.set((1, 1), ACTION_WAIT, -6.0)
        assert len(table) == 2
        assert dict(table) == {((1, 1), ACTION_REQUEST): -5.0,
                               ((1, 1), ACTION_WAIT): -6.0}
        assert table.best_value((1, 1)) == -5.0

    def test_pickle_round_trip_keeps_rows_and_counts(self):
        # A checkpoint carries the rows as they are: values, written
        # masks and the entry count come back, and writing goes on.
        table = QTable(initial_value=-0.5)
        table.set((0, 0), ACTION_WAIT, -1.0)
        table.set((0, 0), ACTION_REQUEST, -2.0)
        table.set((4, 2), ACTION_REQUEST, -7.0)
        again = pickle.loads(pickle.dumps(table, protocol=4))
        assert dict(again) == dict(table) and len(again) == 3
        assert again.memory_bytes() == table.memory_bytes() == 64 + 150 * 3
        assert again.best_value((0, 0)) == -1.0
        assert again.get((4, 2), ACTION_WAIT) == -0.5
        again.set((4, 2), ACTION_WAIT, -3.0)
        assert len(again) == 4 and len(table) == 3

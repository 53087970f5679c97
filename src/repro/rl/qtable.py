"""A tabular action-value function over the rack-selection state space."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .mdp import ACTIONS, RackState


class QTable:
    """q(s, α) for the binary rack-selection MDP.

    Unvisited entries default to ``initial_value``.  The default of 0 is
    *optimistic* for this problem (all true values are negative because
    rewards are negated delays), which nudges early exploration toward
    untried actions — helpful before the bootstrap has seeded the table.

    One row ``[q_wait, q_request, mask]`` per state makes ``best_value``
    one dict hit; bit α of the mask marks (state, α) as written, which
    is what ``len``, iteration and the MC charge count.
    """

    def __init__(self, initial_value: float = 0.0) -> None:
        self._rows: Dict[RackState, List] = {}
        self._entries = 0
        self.initial_value = initial_value

    def get(self, state: RackState, action: int) -> float:
        """Current estimate of q(state, action)."""
        row = self._rows.get(state)
        return self.initial_value if row is None else row[action]

    @property
    def rows(self) -> Dict[RackState, List]:
        """The rows by state, to read inline; write through :meth:`write`."""
        return self._rows

    def set(self, state: RackState, action: int, value: float) -> None:
        """Overwrite q(state, action)."""
        self.write(state, self._rows.get(state), action, value)

    def write(self, state: RackState, row, action: int,
              value: float) -> None:
        """:meth:`set` over ``row``, the caller's fetch of ``state``'s row
        (``None`` where it has none)."""
        if row is None:
            row = self._rows[state] = [self.initial_value,
                                       self.initial_value, 0]
        row[action] = value
        if not row[2] >> action & 1:
            row[2] |= 1 << action
            self._entries += 1

    def best_value(self, state: RackState) -> float:
        """max_α q(state, α) — the bootstrap target of Eq. 5."""
        row = self._rows.get(state)
        if row is None:
            return self.initial_value
        return row[1] if row[1] > row[0] else row[0]

    def __len__(self) -> int:
        return self._entries

    def __iter__(self) -> Iterator[Tuple[Tuple[RackState, int], float]]:
        return (((state, action), row[action])
                for state, row in self._rows.items()
                for action in ACTIONS if row[2] >> action & 1)

    def memory_bytes(self) -> int:
        """Approximate table footprint (for the MC metric)."""
        return 64 + 150 * self._entries

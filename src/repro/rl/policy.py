"""Action-selection policies for the rack-selection learner (Sec. V-A).

The paper adopts ε-greedy: exploit the current value function with
probability 1 − ε, act uniformly at random with probability ε, balancing
exploration against the risk of a still-inaccurate q trapping the planner
in a sub-optimal batching rhythm.
"""

from __future__ import annotations

import random
from typing import Optional

from .mdp import ACTIONS, RackState
from .qtable import QTable


class EpsilonGreedyPolicy:
    """The paper's ε-greedy policy over the binary action space.

    Parameters
    ----------
    table:
        The value function being learned.
    epsilon:
        Exploration probability (paper default 0.1).
    rng:
        Private RNG so planner runs are reproducible; falls back to a
        fresh seeded generator.
    """

    def __init__(self, table: QTable, epsilon: float,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
        self._table = table
        self.epsilon = epsilon
        self._rng = rng if rng is not None else random.Random(0)

    def action(self, state: RackState) -> int:
        """Sample an action: explore w.p. ε, otherwise exploit."""
        if self._rng.random() < self.epsilon:
            return self._rng.choice(ACTIONS)
        return self._table.best_action(state)

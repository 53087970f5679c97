"""Q-learning for rack selection (paper Sec. V-B, Eq. 5).

Implements the temporal-difference update

    q(s, α) ← q(s, α) + β · (c + γ · max_α' q(s', α') − q(s, α))

plus the paper's convergence fix: because the raw state counters only ever
grow, pure bootstrapping keeps chasing unexplored states; so at each
timestamp the planner flips a Bernoulli(δ) coin and, on success, lets the
greedy "most slack picker first" strategy pick racks while still feeding
the observed transitions through this same update ("approximate" mode,
Alg. 2 lines 6–9).  The coin lives in the planner; this module is the
update rule, the ε-greedy head, and the bookkeeping they share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..config import QLearningConfig
from .mdp import (ACTION_REQUEST, ACTION_WAIT, RackObservation, RackState,
                  bucketize, request_cost, transition, wait_cost)
from .policy import EpsilonGreedyPolicy
from .qtable import QTable


@dataclass
class LearnerStats:
    """Counters for diagnosing the learning dynamics in experiments."""

    updates: int = 0
    explored_actions: int = 0
    greedy_updates: int = 0
    cumulative_reward: float = 0.0


class QLearningAgent:
    """The rack-selection learner shared by ATP and EATP.

    One agent serves *all* racks: the bucketed ⟨ap, ar⟩ state space is
    rack-agnostic, so experience from any rack generalises to all racks in
    the same regime — this is what makes the table converge within a single
    run, mirroring the paper's online training.
    """

    def __init__(self, config: Optional[QLearningConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.config = config if config is not None else QLearningConfig()
        self._rng = rng if rng is not None else random.Random(11)
        self.table = QTable()
        self.policy = EpsilonGreedyPolicy(self.table, self.config.epsilon,
                                          self._rng)
        self.stats = LearnerStats()

    # -- observation plumbing ---------------------------------------------

    def state_of(self, observation: RackObservation) -> RackState:
        """Bucket a raw observation into the tabular state."""
        return bucketize(observation, self.config.state_bin_width)

    def use_approximation(self) -> bool:
        """Sample the Bernoulli(δ) coin of Alg. 2 line 5.

        ``True`` means "this timestamp, select greedily and update q from
        the greedy choices" — the bootstrap-seeding mode.
        """
        return self._rng.random() < self.config.delta

    def utilities(self, observation: RackObservation) -> "tuple[float, float]":
        """One-step lookahead utilities ``(u_wait, u_request)``.

        ``u(α) = c(s, α) + γ · max_α' q(s', α')`` — the immediate cost is
        computed from the live observation, the continuation value from
        the learned table.  The lookahead is what lets selection react to
        the *current* picker status: the paper's bucketed ⟨ap, ar⟩ state
        cannot encode f_p, but the immediate term can (a reproduction
        refinement; see :func:`repro.rl.mdp.wait_cost`).

        With γ below 1 the induced decision boundary is approximately
        "request once |τ_r| ≳ (1 − γ)·max{f_p, d}": small batches
        suffice while transport dominates, heavy batching emerges as the
        picker queue grows — the adaptive behaviour of the paper's
        Fig. 13 case study.
        """
        cfg = self.config
        state = self.state_of(observation)
        u_wait = (wait_cost(observation, cfg.deferral_weight)
                  + cfg.discount * self.table.best_value(state))
        next_state = transition(state, ACTION_REQUEST,
                                observation.batch_processing_time,
                                cfg.state_bin_width)
        u_request = (request_cost(observation)
                     + cfg.discount * self.table.best_value(next_state))
        return u_wait, u_request

    def choose_action(self, observation: RackObservation) -> int:
        """ε-greedy over the lookahead utilities (ties favour REQUEST)."""
        if self._rng.random() < self.config.epsilon:
            self.stats.explored_actions += 1
            return self._rng.choice((ACTION_WAIT, ACTION_REQUEST))
        u_wait, u_request = self.utilities(observation)
        return ACTION_REQUEST if u_request >= u_wait else ACTION_WAIT

    def priority(self, observation: RackObservation) -> float:
        """Examination order for Alg. 2 line 12 (lower = examined first).

        The paper examines racks "with the largest expected finish time"
        first; in utility terms those are the racks where requesting
        beats waiting by the widest margin, so we rank by
        ``u_wait − u_request`` ascending (most request-favoured first).
        """
        u_wait, u_request = self.utilities(observation)
        return u_wait - u_request

    # -- the Eq. 5 update ----------------------------------------------------

    def update(self, observation: RackObservation, action: int,
               greedy: bool = False) -> float:
        """Apply one Eq. 5 update for ``(state(observation), action)``.

        Parameters
        ----------
        observation:
            The rack's pre-decision observation (defines s, the reward
            inputs, and the batch size driving the transition).
        action:
            The action taken (ACTION_WAIT keeps s' = s and pays the
            per-tick deferral cost; ACTION_REQUEST pays Eq. 4 and
            advances the counters).
        greedy:
            Whether this update came from the approximation branch
            (bookkeeping only).

        Returns
        -------
        float
            The TD error, handy for convergence diagnostics.
        """
        cfg = self.config
        state = self.state_of(observation)
        if action == ACTION_REQUEST:
            c = request_cost(observation)
        else:
            # Waiting delays every pending item (see
            # :func:`~repro.rl.mdp.wait_cost`).
            c = wait_cost(observation, cfg.deferral_weight)
        next_state = transition(state, action,
                                observation.batch_processing_time,
                                cfg.state_bin_width)
        target = c + cfg.discount * self.table.best_value(next_state)
        old = self.table.get(state, action)
        td_error = target - old
        self.table.set(state, action, old + cfg.learning_rate * td_error)

        self.stats.updates += 1
        self.stats.cumulative_reward += c
        if greedy:
            self.stats.greedy_updates += 1
        return td_error

    def memory_bytes(self) -> int:
        """Learner footprint (Q-table) for the MC metric."""
        return self.table.memory_bytes()

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
from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import QLearningConfig
from .mdp import ACTION_REQUEST, ACTION_WAIT, RackObservation, bucketize
from .qtable import QTable

#: ``(s0, s1, δ, |τ_r|, max{f_p, d})`` (:meth:`QLearningAgent.facts`).
Facts = Tuple[int, int, int, int, int]


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

    The lookahead, ε-greedy head and Eq. 5 update take a rack's
    :meth:`facts`; the selectors read them straight off the racks, and
    the methods taking a :class:`RackObservation` wrap them.
    """

    def __init__(self, config: Optional[QLearningConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.config = config if config is not None else QLearningConfig()
        self._rng = rng if rng is not None else random.Random(11)
        self.table = QTable()
        self.stats = LearnerStats()

    # -- observation plumbing ---------------------------------------------

    def facts(self, observation: RackObservation) -> Facts:
        """``(s0, s1, δ, |τ_r|, max{f_p, d})``: the bucketed state, the
        bucketed batch time a REQUEST advances it by, the waiting and
        the request cost inputs."""
        width = self.config.state_bin_width
        return (*bucketize(observation, width),
                observation.batch_processing_time // width,
                observation.n_pending,
                max(observation.picker_finish_time,
                    observation.distance_to_picker))

    def use_approximation(self) -> bool:
        """Sample the Bernoulli(δ) coin of Alg. 2 line 5.

        ``True`` means "this timestamp, select greedily and update q from
        the greedy choices" — the bootstrap-seeding mode.
        """
        return self._rng.random() < self.config.delta

    # -- the core -----------------------------------------------------------

    def lookahead(self, s0: int, s1: int, delta: int, n_pending: int,
                  overhead: int) -> Tuple[float, float]:
        """One-step lookahead utilities ``(u_wait, u_request)``.

        ``u(α) = c(s, α) + γ · max_α' q(s', α')`` — the immediate cost is
        computed from the live facts (:func:`~repro.rl.mdp.wait_cost`,
        :func:`~repro.rl.mdp.request_cost`), the continuation value from
        the learned table.  The lookahead is what lets selection react to
        the *current* picker status: the paper's bucketed ⟨ap, ar⟩ state
        cannot encode f_p, but the immediate term can (a reproduction
        refinement).

        With γ below 1 the induced decision boundary is approximately
        "request once |τ_r| ≳ (1 − γ)·max{f_p, d}": small batches
        suffice while transport dominates, heavy batching emerges as the
        picker queue grows — the adaptive behaviour of the paper's
        Fig. 13 case study.
        """
        cfg, value = self.config, self.table.best_value
        return (-cfg.deferral_weight * float(n_pending)
                + cfg.discount * value((s0, s1)),
                -float(overhead)
                + cfg.discount * value((s0 + delta, s1 + delta)))

    def decide(self, s0: int, s1: int, delta: int, n_pending: int,
               overhead: int) -> int:
        """ε-greedy over the lookahead utilities (ties favour REQUEST)."""
        if self._rng.random() < self.config.epsilon:
            self.stats.explored_actions += 1
            return self._rng.choice((ACTION_WAIT, ACTION_REQUEST))
        u_wait, u_request = self.lookahead(s0, s1, delta, n_pending,
                                           overhead)
        return ACTION_REQUEST if u_request >= u_wait else ACTION_WAIT

    def learn(self, s0: int, s1: int, delta: int, n_pending: int,
              overhead: int, action: int, greedy: bool = False) -> float:
        """One Eq. 5 update of ``((s0, s1), action)``; the TD error.

        WAIT keeps s' = s and pays the deferral cost, REQUEST pays the
        overhead and advances both counters by ``delta``; ``greedy``
        marks the approximation branch (bookkeeping only).
        """
        cfg, table = self.config, self.table
        state = (s0, s1)
        if action == ACTION_REQUEST:
            c = -float(overhead)
            target = c + cfg.discount * table.best_value((s0 + delta,
                                                          s1 + delta))
        else:
            c = -cfg.deferral_weight * float(n_pending)
            target = c + cfg.discount * table.best_value(state)
        old = table.get(state, action)
        td_error = target - old
        table.set(state, action, old + cfg.learning_rate * td_error)

        self.stats.updates += 1
        self.stats.cumulative_reward += c
        if greedy:
            self.stats.greedy_updates += 1
        return td_error

    # -- the core over an observation -------------------------------------

    def utilities(self, observation: RackObservation) -> Tuple[float, float]:
        """:meth:`lookahead` of the observation's facts."""
        return self.lookahead(*self.facts(observation))

    def choose_action(self, observation: RackObservation) -> int:
        """:meth:`decide` on the observation's facts."""
        return self.decide(*self.facts(observation))

    def priority(self, observation: RackObservation) -> float:
        """Examination order for Alg. 2 line 12 (lower = examined first).

        The paper examines racks "with the largest expected finish time"
        first; in utility terms those are the racks where requesting
        beats waiting by the widest margin, so we rank by
        ``u_wait − u_request`` ascending (most request-favoured first).
        """
        u_wait, u_request = self.utilities(observation)
        return u_wait - u_request

    def update(self, observation: RackObservation, action: int,
               greedy: bool = False) -> float:
        """:meth:`learn` from the observation's facts; the TD error."""
        return self.learn(*self.facts(observation), action, greedy)

    def memory_bytes(self) -> int:
        """Learner footprint (Q-table) for the MC metric."""
        return self.table.memory_bytes()

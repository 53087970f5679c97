"""Q-learning for rack selection (paper Sec. V-B, Eq. 5).

Implements the temporal-difference update

    q(s, α) ← q(s, α) + β · (c + γ · max_α' q(s', α') − q(s, α))

plus the paper's convergence fix: because the raw state counters only ever
grow, pure bootstrapping keeps chasing unexplored states; so at each
timestamp the planner flips a Bernoulli(δ) coin and, on success, lets the
greedy "most slack picker first" strategy pick racks while still feeding
the observed transitions through this same update ("approximate" mode,
Alg. 2 lines 6–9).  The coin lives in the planner; this module is the
update rule, the ε-greedy head, and the bookkeeping they share.  All of
them take a rack's facts ``(s0, s1, δ, |τ_r|, max{f_p, d})``, which
:meth:`~repro.planners.atp.AdaptiveTaskPlanner.facts` reads off the rack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import QLearningConfig
from .mdp import ACTION_REQUEST, ACTION_WAIT
from .qtable import QTable

#: ``(s0, s1, δ, |τ_r|, max{f_p, d})``: the bucketed state, the bucketed
#: batch time a REQUEST advances it by, the waiting and the request cost
#: inputs (:meth:`~repro.planners.atp.AdaptiveTaskPlanner.facts`).
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
    :data:`Facts`, which the selectors read straight off the racks.
    """

    def __init__(self, config: Optional[QLearningConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.config = config if config is not None else QLearningConfig()
        self._rng = rng if rng is not None else random.Random(11)
        self.table = QTable()
        self.stats = LearnerStats()

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
        computed from the live facts, the continuation value from the
        learned table.  The lookahead is what lets selection react to
        the *current* picker status: the paper's bucketed ⟨ap, ar⟩ state
        cannot encode f_p, but the immediate term can (a reproduction
        refinement).

        REQUEST costs ``−max{f_p, d(l_r, l_p)}``, the decision-relevant
        part of Eq. 4.  Eq. 4's batch term Σ_{i∈τ_r} i is
        *policy-invariant in total*: every item's processing time is paid
        exactly once whichever batch carries it, so including it in the
        per-selection reward biases the comparison against selecting (the
        WAIT action never pays it).  The overhead — the wait before
        processing can start, whichever of "picker still busy" (f_p) and
        "rack still travelling" (d) dominates — is what a selection
        actually *adds*, so it is what the learner optimises.

        WAIT costs ``−deferral_weight · |τ_r|``, a refinement beyond the
        paper, which defines rewards only for *selections* (Eq. 4; Alg. 2
        grounds only selections).  A tabular learner also needs WAIT
        grounded, otherwise the discounted bootstrap makes waiting
        dominate every (negative-valued) selection and the policy
        starves.  Waiting delays every pending item on the rack, so the
        cost scales with |τ_r|: cheap to defer an almost-empty rack,
        expensive to defer a loaded one.  ``deferral_weight`` converts
        between the two cost currencies: deferral is paid in *item-ticks
        per tick*, the request overhead in *robot-ticks per selection*.
        A selection decision is revisited roughly every tick over the
        learner's ~1/(1 − γ) tick horizon, so the default weight of 10
        (= 1/(1 − 0.9)) makes one item pending for one horizon
        comparable to one tick of overhead.

        With γ below 1 the induced decision boundary is approximately
        "request once |τ_r| ≳ (1 − γ)·max{f_p, d}": small batches
        suffice while transport dominates, heavy batching emerges as the
        picker queue grows — the adaptive behaviour of the paper's
        Fig. 13 case study.
        """
        rows = self.table.rows
        return self._utilities(rows.get((s0, s1)),
                               rows.get((s0 + delta, s1 + delta)),
                               n_pending, overhead)

    def _utilities(self, row, ahead, n_pending: int,
                   overhead: int) -> Tuple[float, float]:
        """:meth:`lookahead` over rows already fetched: ``row`` is the
        state's, ``ahead`` its REQUEST successor's, ``None`` where the
        table has none."""
        cfg, initial = self.config, self.table.initial_value
        now = initial if row is None else (
            row[1] if row[1] > row[0] else row[0])
        then = initial if ahead is None else (
            ahead[1] if ahead[1] > ahead[0] else ahead[0])
        return (-cfg.deferral_weight * float(n_pending) + cfg.discount * now,
                -float(overhead) + cfg.discount * then)

    def decide(self, s0: int, s1: int, delta: int, n_pending: int,
               overhead: int) -> int:
        """ε-greedy over the lookahead utilities (ties favour REQUEST)."""
        return self._act(*self.lookahead(s0, s1, delta, n_pending, overhead))

    def step(self, s0: int, s1: int, delta: int, n_pending: int,
             overhead: int) -> int:
        """:meth:`decide`, then :meth:`learn` of the action it took, over
        one fetch of each of the two rows they read."""
        rows, state = self.table.rows, (s0, s1)
        row = rows.get(state)
        u_wait, u_request = self._utilities(
            row, rows.get((s0 + delta, s1 + delta)), n_pending, overhead)
        action = self._act(u_wait, u_request)
        self._update(state, row, u_wait, u_request, n_pending, overhead,
                     action)
        return action

    def learn(self, s0: int, s1: int, delta: int, n_pending: int,
              overhead: int, action: int, greedy: bool = False) -> float:
        """One Eq. 5 update of ``((s0, s1), action)``; the TD error.

        WAIT keeps s' = s and pays the deferral cost, REQUEST pays the
        overhead and advances both counters by ``delta``; ``greedy``
        marks the approximation branch (bookkeeping only).
        """
        rows, state = self.table.rows, (s0, s1)
        row = rows.get(state)
        if greedy:
            self.stats.greedy_updates += 1
        return self._update(state, row, *self._utilities(
            row, rows.get((s0 + delta, s1 + delta)), n_pending, overhead),
            n_pending, overhead, action)

    def _act(self, u_wait: float, u_request: float) -> int:
        """The ε-greedy head: a coin, then a random or the greedy action."""
        if self._rng.random() < self.config.epsilon:
            self.stats.explored_actions += 1
            return self._rng.choice((ACTION_WAIT, ACTION_REQUEST))
        return ACTION_REQUEST if u_request >= u_wait else ACTION_WAIT

    def _update(self, state, row, u_wait: float, u_request: float,
                n_pending: int, overhead: int, action: int) -> float:
        """Eq. 5 on ``state``'s ``row`` (``None`` if it has none): the
        action's utility is its target ``c + γ · max q(s')``."""
        cfg = self.config
        if action == ACTION_REQUEST:
            c, target = -float(overhead), u_request
        else:
            c, target = -cfg.deferral_weight * float(n_pending), u_wait
        old = self.table.initial_value if row is None else row[action]
        td_error = target - old
        self.table.write(state, row, action,
                         old + cfg.learning_rate * td_error)
        self.stats.updates += 1
        self.stats.cumulative_reward += c
        return td_error

    def memory_bytes(self) -> int:
        """Learner footprint (Q-table) for the MC metric."""
        return self.table.memory_bytes()

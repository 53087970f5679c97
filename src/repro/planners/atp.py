"""Adaptive Task Planning — Algorithm 2 (paper Sec. V-D).

Couples the Q-learning rack selector with spatiotemporal A* path finding:

* **Rack selection.**  Each timestamp, sample Bernoulli(δ).  On success use
  the greedy most-slack-picker approximation and push its choices through
  the Eq. 5 update (seeding the otherwise-divergent bootstrap); otherwise
  sort racks descending by q(s_r, wait) — the racks whose *continued
  waiting* the learner values most are examined first — and take ε-greedy
  actions per rack until every idle robot has work.
* **Path finding.**  Closest idle robot per selected rack, spatiotemporal
  A* against the (memory-heavy) time-expanded reservation graph.

One documented refinement: the pseudocode only updates q for *selected*
racks, yet sorts by q(s_r, wait).  For that sort key to carry signal the
WAIT action must be updated too, so we apply the Eq. 5 update on both
branches; WAIT pays the per-tick deferral cost −|τ_r| (see
:meth:`~repro.rl.qlearning.QLearningAgent.lookahead`) and keeps the state
unchanged.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional

from ..config import PlannerConfig
from ..pathfinding import _kernel
from ..rl.mdp import ACTION_REQUEST
from ..rl.qlearning import Facts, QLearningAgent
from ..types import Tick
from ..warehouse.entities import Rack, Robot
from ..warehouse.state import WarehouseState
from .base import Planner, SelectionEntry
from .greedy import most_slack_first


class AdaptiveTaskPlanner(Planner):
    """Algorithm 2: RL rack selection + spatiotemporal-graph path finding."""

    name = "ATP"

    def __init__(self, state: WarehouseState,
                 config: Optional[PlannerConfig] = None) -> None:
        super().__init__(state, config)
        rng = random.Random(self.config.seed)
        self.agent = QLearningAgent(self.config.qlearning, rng)

    # -- observation --------------------------------------------------------

    def facts(self, rack: Rack) -> Facts:
        """The learner's facts of the rack's Sec. V-A observation."""
        picker = self.state.pickers[rack.picker_id]
        width = self.agent.config.state_bin_width
        return (picker.accumulated_processing // width,
                rack.accumulated_processing // width,
                rack.pending_processing_time // width,
                len(rack.pending_items),
                max(picker.finish_time_estimate,
                    self._rack_distance[rack.rack_id]))

    # -- Alg. 2 selection ------------------------------------------------------

    def _select(self, t: Tick, robots: List[Robot]) -> List[SelectionEntry]:
        budget = len(robots)
        if self.agent.use_approximation():
            return self._select_greedy(budget)
        return self._select_learned(budget)

    def _select_greedy(self, budget: int) -> List[SelectionEntry]:
        """Alg. 2 lines 6–9: greedy choice, q updated from each selection.

        Under the compiled switch the walk and the updates are one
        ``learned_select`` call that draws nothing, equal to
        :func:`most_slack_first` then :meth:`QLearningAgent.learn`.
        """
        kernel = _kernel.active
        if kernel is not None:
            return self._learned_select(kernel, self.state.picker_index(),
                                        None, budget, greedy=True)
        entries = most_slack_first(self.state, budget,
                                   self.picker_finish_time)
        for entry in entries:
            self.agent.learn(*self.facts(entry.rack), ACTION_REQUEST, True)
        return entries

    def _select_learned(self, budget: int) -> List[SelectionEntry]:
        """Alg. 2 lines 11–19: ε-greedy per selectable rack, most urgent
        rack first.

        "Urgent" is the :meth:`_ranked` order — the racks whose expected
        finish time grows fastest if deferred are examined (and thus,
        under REQUEST, dispatched) first.  Under the compiled switch the
        whole pass is one ``learned_select`` call over the world's
        selectable-rack column, equal to :meth:`_ranked` then
        :meth:`_requests` in entries, learner and RNG.
        """
        kernel = _kernel.active
        if kernel is not None:
            return self._learned_select(kernel, None, None, budget)
        entries: List[SelectionEntry] = []
        for __, __, rack, rack_facts in self._ranked(
                self.state.selectable_racks()):
            if self._requests(rack_facts):
                entries.append(SelectionEntry(rack=rack))
                if len(entries) == budget:
                    break
        return entries

    def _ranked(self, racks: Iterable[Rack]) -> List[tuple]:
        """``(priority, rack_id, rack, facts)`` per rack, most urgent first.

        The paper examines racks "with the largest expected finish time"
        first; in utility terms those are the racks where requesting
        beats waiting by the widest margin, so the priority is
        ``u_wait − u_request`` of the agent's lookahead, ascending (lower
        = examined first).  Every key is taken before the caller's first
        update, so one table serves the whole sort; the facts ride along
        for the examination.
        """
        agent, facts = self.agent, self.facts
        keyed = []
        for rack in racks:
            rack_facts = facts(rack)
            u_wait, u_request = agent.lookahead(*rack_facts)
            keyed.append((u_wait - u_request, rack.rack_id, rack, rack_facts))
        keyed.sort()
        return keyed

    def _requests(self, rack_facts: Facts) -> bool:
        """Alg. 2 lines 13–18 for one rack: one learner step (act
        ε-greedily, learn from the action); whether it was REQUEST."""
        return self.agent.step(*rack_facts) == ACTION_REQUEST

    def _learned_select(self, kernel, index, robots, budget: int,
                        greedy: bool = False) -> List[SelectionEntry]:
        """The kernel's ``learned_select`` over this planner's world and
        learner: the greedy walk over ``index``, the world's picker index,
        where ``greedy``; else ATP's pass where ``index`` is ``None``,
        else EATP's flip over ``index``, the KNN table, for ``robots``."""
        agent, state = self.agent, self.state
        cfg, table, rng = agent.config, agent.table, agent._rng
        racks = state.racks
        picked = kernel.learned_select(
            racks, state.pickers, self._rack_distance,
            state.selectable_column(), index, robots, budget,
            (cfg.state_bin_width, cfg.epsilon, cfg.discount,
             cfg.deferral_weight, cfg.learning_rate),
            table.rows, table, agent.stats,
            *((None, None) if greedy else (rng.random, rng.choice)))
        if robots is None:
            return [SelectionEntry(racks[rack_id]) for rack_id in picked]
        return [SelectionEntry(racks[rack_id], robots[i])
                for i, rack_id in picked]

    # -- memory ------------------------------------------------------------------

    def _extra_memory_bytes(self) -> int:
        return super()._extra_memory_bytes() + self.agent.memory_bytes()

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
:func:`~repro.rl.mdp.wait_cost`) and keeps the state unchanged.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from ..config import PlannerConfig
from ..rl.mdp import ACTION_REQUEST, ACTION_WAIT, RackObservation
from ..rl.qlearning import QLearningAgent
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

    def observe(self, rack: Rack) -> RackObservation:
        """Build the Sec. V-A observation for one rack, right now."""
        picker = self.state.pickers[rack.picker_id]
        return RackObservation(
            picker_accumulated=picker.accumulated_processing,
            rack_accumulated=rack.accumulated_processing,
            picker_finish_time=picker.finish_time_estimate,
            distance_to_picker=self.transport_distance(rack),
            batch_processing_time=rack.pending_processing_time,
            n_pending=len(rack.pending_items),
        )

    # -- Alg. 2 selection ------------------------------------------------------

    def _select(self, t: Tick, racks: List[Rack],
                robots: List[Robot]) -> List[SelectionEntry]:
        budget = len(robots)
        if self.agent.use_approximation():
            return self._select_greedy(racks, budget)
        return self._select_learned(racks, budget)

    def _select_greedy(self, racks: List[Rack],
                       budget: int) -> List[SelectionEntry]:
        """Alg. 2 lines 6–9: greedy choice, q updated from each selection."""
        entries = most_slack_first(racks[0]._world.selectable_by_picker(),
                                   budget, self.picker_finish_time)
        for entry in entries:
            self.agent.update(self.observe(entry.rack), ACTION_REQUEST,
                              greedy=True)
        return entries

    def _select_learned(self, racks: List[Rack],
                        budget: int) -> List[SelectionEntry]:
        """Alg. 2 lines 11–19: ε-greedy per rack, most urgent rack first.

        "Urgent" is the agent's :meth:`~repro.rl.qlearning.QLearningAgent.
        priority` — the racks whose expected finish time grows fastest if
        deferred are examined (and thus, under REQUEST, dispatched) first.
        Only the racks the loop reaches are observed.
        """
        entries: List[SelectionEntry] = []
        for rack in sorted(racks, key=self._priority_key()):
            observation = self.observe(rack)
            action = self.agent.choose_action(observation)
            if action == ACTION_REQUEST:
                entries.append(SelectionEntry(rack=rack))
                self.agent.update(observation, ACTION_REQUEST)
                if len(entries) == budget:
                    break
            else:
                self.agent.update(observation, ACTION_WAIT)
        return entries

    def _priority_key(self) -> Callable[[Rack], Tuple[float, int]]:
        """``rack -> (agent.priority(observe(rack)), rack_id)``, fused.

        The same float operations in the same order as
        :meth:`~repro.rl.qlearning.QLearningAgent.utilities`, without
        building the observation; ``best_value`` is memoised per state,
        valid while the table is not written (one sort).
        """
        cfg = self.agent.config
        width, gamma, weight = (cfg.state_bin_width, cfg.discount,
                                cfg.deferral_weight)
        pickers, distance = self.state.pickers, self._rack_distance
        value = lru_cache(maxsize=None)(self.agent.table.best_value)

        def key(rack: Rack) -> Tuple[float, int]:
            picker = pickers[rack.picker_id]
            s0 = picker.accumulated_processing // width
            s1 = rack.accumulated_processing // width
            delta = rack.pending_processing_time // width
            u_wait = (-weight * float(len(rack.pending_items))
                      + gamma * value((s0, s1)))
            u_request = (-float(max(picker.finish_time_estimate,
                                    distance[rack.rack_id]))
                         + gamma * value((s0 + delta, s1 + delta)))
            return u_wait - u_request, rack.rack_id

        return key

    # -- memory ------------------------------------------------------------------

    def _extra_memory_bytes(self) -> int:
        return super()._extra_memory_bytes() + self.agent.memory_bytes()

"""Efficient Adaptive Task Planning — Algorithm 3 (paper Sec. VI, Fig. 8).

ATP plus the three efficiency designs:

* **Flip requesting side (Sec. VI-A).**  Instead of sorting all racks by
  value, iterate idle robots and probe each robot's K closest racks from a
  static KNN index over the fixed rack homes; per robot, take the first
  rack the ε-greedy policy accepts.  Selection drops from
  O(|R| log |R|) to O(|A|·K).
* **Conflict Detection Table (Sec. VI-B).**  The reservation structure is
  the sparse per-cell timestamp table instead of the dense time-expanded
  graph — same answers, O(HW) space.
* **Cache-aided path finding (Sec. VI-B).**  Once a spatiotemporal A* node
  pops within distance L of the goal, a conflict-oblivious shortest path
  — the descent of the goal's field — is followed with waits inserted
  until each next step is conflict-free.

These trade a sliver of solution quality (the paper measures < 1% makespan
loss vs. ATP) for the large STC/PTC/MC wins of Figs. 11–12.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..config import PlannerConfig
from ..pathfinding.cache import ShortestPathCache
from ..pathfinding.cdt import ConflictDetectionTable
from ..pathfinding.paths import Path
from ..pathfinding.reservation import ReservationTable
from ..rl.mdp import ACTION_REQUEST, ACTION_WAIT
from ..types import Cell, Tick
from ..warehouse.entities import Rack, RackPhase, Robot
from ..warehouse.knn import StaticRackKNN
from ..warehouse.state import WarehouseState
from .atp import AdaptiveTaskPlanner
from .base import SelectionEntry


class EfficientAdaptiveTaskPlanner(AdaptiveTaskPlanner):
    """Algorithm 3: ATP with flip requesting, CDT, and the path cache."""

    name = "EATP"

    def __init__(self, state: WarehouseState,
                 config: Optional[PlannerConfig] = None) -> None:
        super().__init__(state, config)
        self.knn = self._build_knn()
        self.cache = ShortestPathCache(self.config.cache_threshold)

    def _build_knn(self) -> StaticRackKNN:
        """The K-nearest-racks table: a pure function of the rack homes."""
        return StaticRackKNN(
            rack_homes=[rack.home for rack in self.state.racks],
            width=self.grid.width, height=self.grid.height,
            k=self.config.knn_k)

    # -- checkpointing ----------------------------------------------------------

    #: ``self.cache`` — which *is* charged to the MC metric — is plain
    #: data and pickles as-is.  The KNN table is charged to MC too, but
    #: rack homes never move, so it is rebuilt (same table, same
    #: ``memory_bytes()``) rather than stored.
    _UNPICKLED = AdaptiveTaskPlanner._UNPICKLED + ("knn",)

    def __setstate__(self, state) -> None:
        super().__setstate__(state)
        self.knn = self._build_knn()

    # -- reservation: the CDT replaces the spatiotemporal graph ---------------

    def _make_reservation(self) -> ReservationTable:
        # One table at every floor size.  The argless call keeps the
        # legacy-table swap of the equivalence suite working.
        return ConflictDetectionTable()

    # -- Alg. 3 selection: flip requesting --------------------------------------

    def _select(self, t: Tick, racks: List[Rack],
                robots: List[Robot]) -> List[SelectionEntry]:
        if self.agent.use_approximation():
            # Alg. 3 line 8 — identical greedy seeding to ATP.
            return self._select_greedy(racks, len(robots))
        return self._select_flipped(racks, robots)

    def _select_flipped(self, racks: List[Rack],
                        robots: List[Robot]) -> List[SelectionEntry]:
        """Alg. 3 lines 10–13: per-robot probe of its K closest racks.

        Candidates are the selectable racks among the robot's K nearest
        homes, examined in the agent's urgency order (most costly to defer
        first) — the same examination order ATP applies globally, here
        restricted to the robot's neighbourhood so selection stays
        O(|A|·K).  The first candidate the ε-greedy policy accepts is
        claimed; if it refuses all of them the robot idles this timestamp.

        ``racks`` (every selectable rack) is never walked: a neighbour's
        selectability is read off the rack itself, so the cost does not
        grow with the backlog.
        """
        all_racks = self.state.racks
        claimed: Set[int] = set()
        entries: List[SelectionEntry] = []
        # Serve robots whose best local candidate is most urgent first, so
        # a rack two robots can reach goes to the one that values it most —
        # still O(|A|·K + |A| log |A|), preserving the Sec. VI-A bound.
        per_robot = []
        for robot in robots:
            candidates = [all_racks[rack_id]
                          for rack_id in self.knn.nearest(robot.location)
                          if all_racks[rack_id].selectable]
            observed = [(self.observe(rack), rack) for rack in candidates]
            observed.sort(key=lambda pair: (self.agent.priority(pair[0]),
                                            pair[1].rack_id))
            best = (self.agent.priority(observed[0][0])
                    if observed else float("inf"))
            per_robot.append((best, robot.robot_id, robot, observed))
        per_robot.sort(key=lambda entry: entry[:2])
        for __, __, robot, observed in per_robot:
            for observation, rack in observed:
                if rack.rack_id in claimed:
                    continue
                action = self.agent.choose_action(observation)
                if action == ACTION_REQUEST:
                    entries.append(SelectionEntry(rack=rack, robot=robot))
                    self.agent.update(observation, ACTION_REQUEST)
                    claimed.add(rack.rack_id)
                    break  # Alg. 3 line 13: one rack per robot.
                self.agent.update(observation, ACTION_WAIT)
        return entries

    # -- Alg. 3 path finding: CDT + cache-aided A* --------------------------------

    def _make_finisher(self, goal: Cell):
        """The Sec. VI-B cache-aided finisher, for every search tier.

        At ``(cell, t)`` with ``0 < h(cell) <= L`` it records the pair
        ``(cell, goal)`` in the cache and walks the goal field's descent
        from ``cell``, waiting where the next move is reserved — at most
        64 ticks a step and 64 in all, the livelock guard of
        :func:`~repro.pathfinding.cache.follow_with_waits`.
        """
        cache = self.cache
        if cache.threshold <= 0:
            return None, 0
        heuristics, walk = self.heuristics, self.free_flow.walk
        reservation, height = self.reservation, self.grid.height

        def finisher(cell: Cell, t: Tick) -> Optional[Path]:
            # The search calling this has fetched the goal's field.
            flat = heuristics.peek(goal).flat
            cache.record(cell, goal, flat[cell[0] * height + cell[1]] + 1)
            return walk(reservation, flat, t, cell, goal, (64, 64))

        return finisher, cache.threshold

    # -- memory ---------------------------------------------------------------------

    def _extra_memory_bytes(self) -> int:
        return (super()._extra_memory_bytes()
                + self.knn.memory_bytes()
                + self.cache.memory_bytes())

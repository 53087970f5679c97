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
  until each next step is conflict-free; the search tiers walk it and
  record the pairs in the planner's cache, whose threshold is L.

These trade a sliver of solution quality (the paper measures < 1% makespan
loss vs. ATP) for the large STC/PTC/MC wins of Figs. 11–12.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..config import PlannerConfig
from ..pathfinding import _kernel
from ..pathfinding.cache import ShortestPathCache
from ..pathfinding.cdt import ConflictDetectionTable
from ..pathfinding.reservation import ReservationTable
from ..types import Tick
from ..warehouse.entities import Robot
from ..warehouse.knn import StaticRackKNN
from ..warehouse.state import WarehouseState
from .atp import AdaptiveTaskPlanner
from .base import SelectionEntry


class EfficientAdaptiveTaskPlanner(AdaptiveTaskPlanner):
    """Algorithm 3: ATP with flip requesting, CDT, and the path cache."""

    name = "EATP"

    def __init__(self, state: WarehouseState,
                 config: Optional[PlannerConfig] = None) -> None:
        config = config if config is not None else PlannerConfig()
        # Set first: the fallback chain the base builds takes it.
        self.cache = ShortestPathCache(config.cache_threshold)
        super().__init__(state, config)
        self.knn = self._build_knn()

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

    def _select(self, t: Tick, robots: List[Robot]) -> List[SelectionEntry]:
        if self.agent.use_approximation():
            # Alg. 3 line 8 — identical greedy seeding to ATP.
            return self._select_greedy(len(robots))
        return self._select_flipped(robots)

    def _select_flipped(self, robots: List[Robot]) -> List[SelectionEntry]:
        """Alg. 3 lines 10–13: per-robot probe of its K closest racks.

        Candidates are the selectable racks among the robot's K nearest
        homes, examined in the agent's urgency order (most costly to defer
        first) — the same examination order ATP applies globally, here
        restricted to the robot's neighbourhood so selection stays
        O(|A|·K).  The first candidate the ε-greedy policy accepts is
        claimed; if it refuses all of them the robot idles this timestamp.

        The selectable racks are never listed: the KNN gather reads
        each neighbour's selectability off the world's selectable-rack
        column and hands back only the robots that have a candidate, so
        the cost does not grow with the backlog.  Leaving the others out
        is exact: a robot without a candidate would rank nothing, sort
        last, touch neither the learner nor the RNG, and claim nothing.
        Under the compiled switch the gather, the ranking and the steps
        are one ``learned_select`` call, equal to this python pass.
        """
        kernel = _kernel.active
        if kernel is not None:
            return self._learned_select(kernel, self.knn.table, robots,
                                        len(robots))
        all_racks = self.state.racks
        claimed: Set[int] = set()
        entries: List[SelectionEntry] = []
        # Serve robots whose best local candidate is most urgent first, so
        # a rack two robots can reach goes to the one that values it most —
        # still O(|A|·K + |A| log |A|), preserving the Sec. VI-A bound.
        per_robot = []
        for i, rack_ids in self.knn.select(
                [robot.location for robot in robots],
                self.state.selectable_column()):
            robot = robots[i]
            keyed = self._ranked(map(all_racks.__getitem__, rack_ids))
            per_robot.append((keyed[0][0], robot.robot_id, robot, keyed))
        per_robot.sort(key=lambda entry: entry[:2])
        for __, __, robot, keyed in per_robot:
            for __, rack_id, rack, rack_facts in keyed:
                if rack_id not in claimed and self._requests(rack_facts):
                    entries.append(SelectionEntry(rack=rack, robot=robot))
                    claimed.add(rack_id)
                    break  # Alg. 3 line 13: one rack per robot.
        return entries

    # -- memory ---------------------------------------------------------------------

    def _extra_memory_bytes(self) -> int:
        return (super()._extra_memory_bytes()
                + self.knn.memory_bytes()
                + self.cache.memory_bytes())

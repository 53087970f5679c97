"""Least Expiration First — the spatiotemporal task-selection baseline [17].

Deng et al.'s selector prefers tasks with the least remaining tolerance.
Warehouse items carry no expiry, so the paper's extension treats every item
as equally tolerant, reducing LEF to "serve racks whose items emerged
earliest" — global FIFO over item arrival times.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List

from ..types import Tick
from ..warehouse.entities import Robot
from .base import Planner, SelectionEntry


class LeastExpirationFirstPlanner(Planner):
    """FIFO-by-oldest-item rack selection."""

    name = "LEF"

    def _select(self, t: Tick, robots: List[Robot]) -> List[SelectionEntry]:
        # Every selectable rack has pending items, so oldest_arrival is set.
        ordered = sorted(self.state.selectable_racks(),
                         key=attrgetter("oldest_arrival", "rack_id"))
        return [SelectionEntry(rack=rack) for rack in ordered[:len(robots)]]

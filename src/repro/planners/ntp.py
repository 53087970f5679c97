"""Naive Task Planning — Algorithm 1, the extended state of the art [7].

Extends Ma et al.'s online MAPF dispatcher to TPRW the way the paper's
Sec. III-A describes: instead of planning for the robot with the least
pickup time, plan for racks whose picker is *most slack* (smallest finish
time f_p, Eq. 3), since a slack picker implies less queuing.  Every
selectable rack is dispatched as soon as a robot is free — no batching —
which is exactly the greedy behaviour the Sec. III-B bad case punishes.
A wake walks the pickers with work and reads their racks off the world's
selectable-rack column; it never builds the whole selectable list.
"""

from __future__ import annotations

from typing import List

from ..types import Tick
from ..warehouse.entities import Robot
from .base import Planner, SelectionEntry
from .greedy import most_slack_first


class NaiveTaskPlanner(Planner):
    """Algorithm 1: most-slack-picker-first greedy dispatch."""

    name = "NTP"

    def _select(self, t: Tick, robots: List[Robot]) -> List[SelectionEntry]:
        return most_slack_first(self.state, len(robots),
                                self.picker_finish_time)

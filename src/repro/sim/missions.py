"""Missions: one fulfilment cycle through the five-stage pipeline.

A mission binds a robot, a rack, and the item batch taken at selection
time, and walks the stages of Fig. 2:

    TO_RACK → TO_PICKER → QUEUING → PROCESSING → RETURNING → done

Movement stages carry the conflict-free path of the current leg; the two
stationary stages park the robot at the picker (off-grid, matching how the
paper folds queuing/processing into the delay terms of Eq. 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import SimulationError
from ..pathfinding.paths import Path
from ..types import Tick
from ..warehouse.entities import Item


class MissionStage(enum.Enum):
    """Where the mission is in the fulfilment cycle."""

    TO_RACK = "to_rack"
    TO_PICKER = "to_picker"
    QUEUING = "queuing"
    PROCESSING = "processing"
    RETURNING = "returning"
    DONE = "done"

    @property
    def moving(self) -> bool:
        """Whether the robot is travelling during this stage."""
        return self in (MissionStage.TO_RACK, MissionStage.TO_PICKER,
                        MissionStage.RETURNING)


@dataclass
class Mission:
    """One dispatched fulfilment cycle.

    Attributes
    ----------
    robot_id, rack_id:
        The bound robot and rack.
    batch:
        Items taken from the rack at selection time; their total
        processing time is the rack's occupancy of the picker.
    path:
        The current leg's conflict-free path (None while stationary).
    stage:
        Current pipeline stage.
    dispatched_at:
        t_k of Eq. 2 — when the planner selected the rack.
    stage_entered_at:
        Tick of the latest stage transition (drives the Fig. 13 trace).
    """

    robot_id: int
    rack_id: int
    batch: List[Item]
    path: Optional[Path]
    stage: MissionStage = MissionStage.TO_RACK
    dispatched_at: Tick = 0
    stage_entered_at: Tick = 0

    def __post_init__(self) -> None:
        if not self.batch:
            raise SimulationError(
                f"mission for rack {self.rack_id} dispatched with an "
                f"empty batch")

    @property
    def batch_processing_time(self) -> int:
        """Σ_{i∈batch} i — the picker occupancy of this cycle."""
        return sum(item.processing_time for item in self.batch)

    @property
    def n_items(self) -> int:
        """Number of items fulfilled by this cycle."""
        return len(self.batch)

    def enter(self, stage: MissionStage, t: Tick,
              path: Optional[Path] = None) -> None:
        """Transition to ``stage`` at tick ``t`` with an optional new leg."""
        _require_legal_transition(self.stage, stage)
        self.stage = stage
        self.stage_entered_at = t
        self.path = path

    def resume(self, t: Tick, path: Path) -> None:
        """Continue the *current* moving stage on a fresh leg.

        The horizon-replan case: the previous leg was partial (a
        wait-in-place) and ended short of the stage's target,
        so the planner supplied a continuation from where the robot
        stands.  The stage — and ``stage_entered_at``, which feeds the
        Fig. 13 stage-duration accounting — is deliberately unchanged:
        the robot never left the stage, it just swapped legs.
        """
        if not self.stage.moving:
            raise SimulationError(
                f"cannot resume non-moving stage {self.stage.value} "
                f"(rack {self.rack_id})")
        if self.path is None or path.source != self.path.goal \
                or path.start_time != t:
            raise SimulationError(
                f"continuation leg mismatch for rack {self.rack_id}: "
                f"previous leg ends {self.path.goal if self.path else None}"
                f"@{self.path.end_time if self.path else None}, "
                f"continuation starts {path.source}@{path.start_time} "
                f"(expected t={t})")
        self.path = path


_LEGAL = {
    MissionStage.TO_RACK: (MissionStage.TO_PICKER,),
    MissionStage.TO_PICKER: (MissionStage.QUEUING,),
    MissionStage.QUEUING: (MissionStage.PROCESSING,),
    MissionStage.PROCESSING: (MissionStage.RETURNING,),
    MissionStage.RETURNING: (MissionStage.DONE,),
    MissionStage.DONE: (),
}


def _require_legal_transition(current: MissionStage,
                              target: MissionStage) -> None:
    if target not in _LEGAL[current]:
        raise SimulationError(
            f"illegal mission transition {current.value} -> {target.value}")

"""Entities of the rack-to-picker warehouse (paper Definitions 1–3).

``Item``, ``Rack``, ``Picker`` and ``Robot`` are deliberately *mutable*
records: the simulator advances their state in place every tick, and the
planners read them through :class:`~repro.warehouse.state.WarehouseState`.

Identity conventions: every entity carries a small integer id unique within
its kind.  Planners key their bookkeeping on those ids, never on object
identity, so states can be snapshotted and compared in tests.

The entities know nothing of the indexes derived from them.  Only three
events change whether a robot is idle or a rack selectable — an item
arrives, a robot is dispatched for a rack, a robot sets a rack down at
home — and :class:`~repro.warehouse.state.WarehouseState` performs each
one (``deliver_item``, ``dispatch``, ``return_home``), re-filing what it
changed.  A plain write of ``Rack.phase`` / ``Rack.pending_items`` or
``Robot.state`` outside those transitions leaves the indexes stale, and
``WarehouseState.check_invariants`` reports it.  A rack's two batch facts
(``pending_processing_time``, ``oldest_arrival``) are derived at
construction and restore, reset by ``take_batch`` and advanced by
``deliver_item``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from collections import deque

from ..types import Cell, Tick


@dataclass(frozen=True)
class Item:
    """One task: a single item to be picked from a rack (Def. 1's τ_r).

    Attributes
    ----------
    item_id:
        Global id, unique across the whole workload.
    rack_id:
        The rack this item sits on.
    arrival:
        Tick at which the item emerges on the rack (online arrival).
    processing_time:
        Picker time units needed to process the item (the element of τ_r).
    """

    item_id: int
    rack_id: int
    arrival: Tick
    processing_time: int

    def __post_init__(self) -> None:
        if self.processing_time <= 0:
            raise ValueError(
                f"item {self.item_id}: processing_time must be positive, "
                f"got {self.processing_time}")
        if self.arrival < 0:
            raise ValueError(f"item {self.item_id}: arrival must be >= 0")


def batch_facts(items: List[Item]) -> Tuple[int, Optional[Tick]]:
    """``(Σ processing time, oldest arrival)`` of ``items``, by a rescan."""
    return (sum(item.processing_time for item in items),
            min((item.arrival for item in items), default=None))


class RackPhase(enum.Enum):
    """Where a rack currently is in its fulfilment cycle."""

    STORED = "stored"          # at its home cell, available for selection
    IN_TRANSIT = "in_transit"  # a robot is fetching / carrying / returning it


@dataclass
class Rack:
    """A storage rack (Def. 1: ⟨l_r, τ_r, p_r⟩).

    The rack's *home* location is fixed; racks always return to it after
    processing.  ``pending_items`` is the live τ_r — items that have emerged
    but are not yet part of a dispatched batch.

    ``pending_processing_time`` (Σ_{i∈τ_r} i) and ``oldest_arrival`` (LEF's
    key; None when τ_r is empty) are plain attributes, derived from
    ``pending_items`` at construction and kept by :meth:`take_batch` and
    ``WarehouseState.deliver_item`` in O(1).
    """

    rack_id: int
    home: Cell
    picker_id: int
    pending_items: List[Item] = field(default_factory=list)
    phase: RackPhase = RackPhase.STORED
    #: Accumulated processing time this rack has received (ar_r, Sec. V-A).
    accumulated_processing: int = 0
    #: Tick at which the rack last returned home (f_r bookkeeping).
    last_return: Tick = 0

    def __post_init__(self) -> None:
        self._recount()

    def __setstate__(self, state: dict) -> None:
        # Attribute by attribute: filling ``self.__dict__`` turns the
        # instance's inline attribute values into a real dict, and every
        # later ``rack.<attr>`` read takes the slow path.  Checkpoints
        # written before the batch facts were kept carry none.
        for name, value in state.items():
            setattr(self, name, value)
        self._recount()

    def _recount(self) -> None:
        """Derive both batch facts from ``pending_items`` by a rescan."""
        self.pending_processing_time, self.oldest_arrival = batch_facts(
            self.pending_items)

    @property
    def has_pending(self) -> bool:
        """Whether the rack currently carries any unserved items."""
        return bool(self.pending_items)

    @property
    def selectable(self) -> bool:
        """Home (STORED) with a pending item: a planner may pick it now."""
        return self.phase is RackPhase.STORED and bool(self.pending_items)

    def take_batch(self) -> List[Item]:
        """Remove and return the current pending items as a dispatch batch.

        Called by the simulator the moment a planner selects this rack;
        items that arrive later join the *next* batch — this is exactly the
        batching boundary the adaptive policy plays with (Sec. III-B).
        """
        batch, self.pending_items = self.pending_items, []
        self.pending_processing_time, self.oldest_arrival = 0, None
        return batch


@dataclass
class Picker:
    """A human picking station (Def. 2: ⟨l_p, q_p, e_p⟩).

    ``queue`` holds rack ids in FCFS order (q_p); ``remaining_current`` is
    e_p, the time left on the rack currently being processed.
    """

    picker_id: int
    location: Cell
    queue: Deque[int] = field(default_factory=deque)
    #: Rack currently being processed, or None when the station is free.
    current_rack: Optional[int] = None
    #: e_p — remaining processing time of the current rack's batch.
    remaining_current: int = 0
    #: Σ processing time of batches sitting in the queue (not yet started).
    queued_processing: int = 0
    #: ap_p — accumulated busy time (Sec. V-A state component).
    accumulated_processing: int = 0
    #: Total ticks this picker has spent processing (for PPR).
    busy_ticks: int = 0

    @property
    def finish_time_estimate(self) -> int:
        """f_p of Eq. 3: e_p plus the processing time of all queued batches."""
        return self.remaining_current + self.queued_processing

    @property
    def is_busy(self) -> bool:
        """Whether the picker is processing a rack right now."""
        return self.current_rack is not None


class RobotState(enum.Enum):
    """Robot availability (Def. 3's s_a) refined with the mission stage."""

    IDLE = "idle"
    TO_RACK = "to_rack"        # pickup leg
    TO_PICKER = "to_picker"    # delivery leg (carrying the rack)
    QUEUING = "queuing"        # parked in the picker queue
    PROCESSING = "processing"  # rack under the picker
    RETURNING = "returning"    # return leg (carrying the rack home)

    @property
    def busy(self) -> bool:
        """The paper's binary busy/idle view of the state."""
        return self is not RobotState.IDLE


@dataclass
class Robot:
    """A mobile robot (Def. 3: ⟨l_a, s_a⟩).

    ``location`` is exact whenever the robot is idle or has just finished
    a leg — the only times a planner reads it.  While a leg is under way
    the simulator does not touch it: a moving robot's position at tick
    ``t`` is ``mission.path.cell_at(t)``.
    """

    robot_id: int
    location: Cell
    state: RobotState = RobotState.IDLE
    #: Rack currently assigned/carried, if any.
    rack_id: Optional[int] = None
    #: Total ticks spent in any busy state (for RWR).
    busy_ticks: int = 0

    @property
    def is_idle(self) -> bool:
        """Whether the robot can accept a new mission."""
        return self.state is RobotState.IDLE

"""The live warehouse state shared by the simulator and the planners.

``WarehouseState`` owns the entity collections (racks, pickers, robots) and
the cheap indexes planners query every timestamp: racks per picker, idle
robots, racks with pending items.  It is the ``R``, ``P``, ``A`` triple of
the TPRW problem statement plus the grid they live on.

The idle-robot and selectable-rack sets (whole, per picker, and as a
byte column by rack id) are kept incrementally.  Only three events change them — an item arrives
(:meth:`~WarehouseState.deliver_item`), a robot is dispatched for a rack
(:meth:`~WarehouseState.dispatch`), a robot sets a rack down at home
(:meth:`~WarehouseState.return_home`) — and each re-files the entities it
changed, so a planner wake costs what changed, not a rescan of the world.
Every other write the simulator makes (a robot's later mission stages,
counters, locations) leaves idleness and selectability as they were.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import SimulationError
from ..types import Tick
from .entities import (Item, Picker, Rack, RackPhase, Robot, RobotState,
                       batch_facts)
from .grid import Grid
from .layout import WarehouseLayout

_RACK_ID = attrgetter("rack_id")
_ROBOT_ID = attrgetter("robot_id")


def _file(members: list, entity, key: Callable, wanted: bool) -> None:
    """Make ``entity``'s membership of the id-sorted ``members`` ``wanted``."""
    i = bisect_left(members, key(entity), key=key)
    present = i < len(members) and members[i] is entity
    if wanted and not present:
        members.insert(i, entity)
    elif present and not wanted:
        del members[i]


@dataclass
class WarehouseState:
    """Mutable world state: the grid plus all entities, with integrity checks.

    Construct via :meth:`from_layout`, which materialises entities from a
    :class:`~repro.warehouse.layout.WarehouseLayout` and assigns each rack
    to its picker round-robin (the fixed rack→picker association of Def. 1).
    """

    grid: Grid
    racks: List[Rack]
    pickers: List[Picker]
    robots: List[Robot]
    _racks_by_picker: Dict[int, List[int]] = field(default_factory=dict, repr=False)
    #: The idle robots / selectable racks (also per picker), ascending by id
    #: — derived data, kept by the three transitions.
    _idle: List[Robot] = field(default_factory=list, repr=False, compare=False)
    _selectable: List[Rack] = field(default_factory=list, repr=False,
                                    compare=False)
    _selectable_by_picker: Dict[int, List[Rack]] = field(
        default_factory=dict, repr=False, compare=False)
    #: One byte per rack id, 1 where the rack is selectable — the same
    #: set as ``_selectable``, as a column a gather reads by id.
    _selectable_column: bytearray = field(default_factory=bytearray,
                                          repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rebuild_indexes()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_layout(cls, layout: WarehouseLayout, n_robots: int,
                    rack_to_picker: Optional[Sequence[int]] = None) -> "WarehouseState":
        """Materialise a state from a layout.

        Parameters
        ----------
        layout:
            The floor plan (validated).
        n_robots:
            Robots to create.  They start idle, parked at the first
            ``n_robots`` rack home cells (idling beneath racks, as deployed
            rack-to-picker systems do).
        rack_to_picker:
            Optional explicit rack→picker assignment (index = rack id).
            Defaults to round-robin, which spreads load evenly.
        """
        layout.validate()
        if n_robots < 1:
            raise SimulationError("need at least one robot")
        if n_robots > layout.n_racks:
            raise SimulationError(
                f"{n_robots} robots cannot park beneath {layout.n_racks} racks")
        if rack_to_picker is None:
            rack_to_picker = [i % layout.n_pickers for i in range(layout.n_racks)]
        if len(rack_to_picker) != layout.n_racks:
            raise SimulationError(
                "rack_to_picker must assign every rack exactly once")
        for picker_id in rack_to_picker:
            if not 0 <= picker_id < layout.n_pickers:
                raise SimulationError(f"picker id {picker_id} out of range")

        racks = [Rack(rack_id=i, home=home, picker_id=rack_to_picker[i])
                 for i, home in enumerate(layout.rack_homes)]
        pickers = [Picker(picker_id=i, location=loc)
                   for i, loc in enumerate(layout.picker_locations)]
        robots = [Robot(robot_id=i, location=layout.rack_homes[i])
                  for i in range(n_robots)]
        return cls(grid=layout.grid, racks=racks, pickers=pickers, robots=robots)

    def _rebuild_indexes(self) -> None:
        """Adopt the entities and derive every index from scratch."""
        self._racks_by_picker = {p.picker_id: [] for p in self.pickers}
        for rack in self.racks:
            self._racks_by_picker.setdefault(rack.picker_id, []).append(
                rack.rack_id)
        self._idle = self._scan_idle()
        self._selectable = self._scan_selectable()
        self._selectable_by_picker = self._scan_selectable_by_picker()
        self._selectable_column = self._scan_selectable_column()

    def _scan_idle(self) -> List[Robot]:
        return [robot for robot in self.robots if robot.is_idle]

    def _scan_selectable(self) -> List[Rack]:
        return [rack for rack in self.racks if rack.selectable]

    def _scan_selectable_column(self) -> bytearray:
        return bytearray(rack.selectable for rack in self.racks)

    def _scan_selectable_by_picker(self) -> Dict[int, List[Rack]]:
        return {pid: [self.racks[rid] for rid in rids
                      if self.racks[rid].selectable]
                for pid, rids in self._racks_by_picker.items()}

    def _rack_changed(self, rack: Rack) -> None:
        """Re-file ``rack`` after its ``phase`` / ``pending_items`` changed."""
        wanted = rack.selectable
        _file(self._selectable, rack, _RACK_ID, wanted)
        _file(self._selectable_by_picker[rack.picker_id], rack, _RACK_ID,
              wanted)
        self._selectable_column[rack.rack_id] = wanted

    # -- planner-facing queries ---------------------------------------------

    def idle_robots(self) -> List[Robot]:
        """The set A: robots able to accept a mission this timestamp."""
        return list(self._idle)

    def selectable_racks(self) -> List[Rack]:
        """Racks that are home (STORED) and carry at least one pending item."""
        return list(self._selectable)

    def selectable_by_picker(self) -> Dict[int, List[Rack]]:
        """Each picker's selectable racks, ascending by id (empty lists
        for pickers without work).  The live index: read, never mutate."""
        return self._selectable_by_picker

    def selectable_column(self) -> bytearray:
        """``column[rack_id]`` is 1 where the rack is selectable, else 0.
        The live column: read, never mutate."""
        return self._selectable_column

    def dispatchable(self) -> bool:
        """Whether an idle robot and a selectable rack coexist (O(1))."""
        return bool(self._idle and self._selectable)

    def total_pending_items(self) -> int:
        """Number of items that emerged but are not yet part of a batch."""
        return sum(len(rack.pending_items) for rack in self.racks)

    # -- the transitions that change the indexes ------------------------------

    def deliver_item(self, item: Item) -> None:
        """Register a newly arrived item on its rack (online arrival)."""
        rack = self.racks[item.rack_id]
        rack.pending_items.append(item)
        rack.pending_processing_time += item.processing_time
        oldest = rack.oldest_arrival
        rack.oldest_arrival = (item.arrival if oldest is None
                               else min(oldest, item.arrival))
        self._rack_changed(rack)

    def dispatch(self, robot: Robot, rack: Rack) -> List[Item]:
        """Send ``robot`` for ``rack``; return the batch it takes along."""
        batch = rack.take_batch()
        rack.phase = RackPhase.IN_TRANSIT
        robot.state = RobotState.TO_RACK
        robot.rack_id = rack.rack_id
        self._rack_changed(rack)
        _file(self._idle, robot, _ROBOT_ID, False)
        return batch

    def return_home(self, robot: Robot, rack: Rack, t: Tick) -> None:
        """``robot`` sets ``rack`` down at its home at ``t`` and goes idle."""
        robot.state = RobotState.IDLE
        robot.rack_id = None
        robot.location = rack.home
        rack.phase = RackPhase.STORED
        rack.last_return = t
        self._rack_changed(rack)
        _file(self._idle, robot, _ROBOT_ID, True)

    def check_invariants(self) -> None:
        """Validate cross-entity invariants; raise on violation.

        Used by tests and (cheaply) by the simulator in debug runs:
        - a robot in a carrying state references an existing rack;
        - a rack IN_TRANSIT is referenced by exactly one busy robot;
        - picker queues only contain IN_TRANSIT racks;
        - the incremental idle / selectable (whole and per picker) indices
          equal a from-scratch rescan (same objects, ascending id), the
          selectable column equals a rescan byte for byte, and
          every rack's batch facts equal a rescan of its ``pending_items`` —
          a writer that bypassed the three transitions fails here instead
          of silently diverging.
        """
        carrier_of: Dict[int, int] = {}
        for robot in self.robots:
            if robot.state is RobotState.IDLE:
                if robot.rack_id is not None:
                    raise SimulationError(
                        f"idle robot {robot.robot_id} still references rack "
                        f"{robot.rack_id}")
                continue
            if robot.rack_id is None:
                raise SimulationError(
                    f"busy robot {robot.robot_id} has no rack assigned")
            if robot.rack_id in carrier_of:
                raise SimulationError(
                    f"rack {robot.rack_id} carried by robots "
                    f"{carrier_of[robot.rack_id]} and {robot.robot_id}")
            carrier_of[robot.rack_id] = robot.robot_id
        for rack in self.racks:
            if rack.phase is RackPhase.IN_TRANSIT and rack.rack_id not in carrier_of:
                raise SimulationError(
                    f"rack {rack.rack_id} is IN_TRANSIT but unowned")
            if rack.phase is RackPhase.STORED and rack.rack_id in carrier_of:
                raise SimulationError(
                    f"rack {rack.rack_id} is STORED but robot "
                    f"{carrier_of[rack.rack_id]} claims it")
        for picker in self.pickers:
            for rid in picker.queue:
                if self.racks[rid].phase is not RackPhase.IN_TRANSIT:
                    raise SimulationError(
                        f"queued rack {rid} at picker {picker.picker_id} "
                        f"is not IN_TRANSIT")
        for name, key, index, rescan in (
                ("idle-robot", _ROBOT_ID, self._idle, self._scan_idle()),
                ("selectable-rack", _RACK_ID, self._selectable,
                 self._scan_selectable()),
                *((f"picker {pid} selectable-rack", _RACK_ID,
                   self._selectable_by_picker.get(pid, []), rescan)
                  for pid, rescan in
                  self._scan_selectable_by_picker().items())):
            if list(map(id, index)) != list(map(id, rescan)):
                stale = set(map(key, index)) ^ set(map(key, rescan))
                raise SimulationError(
                    f"stale {name} index: ids {sorted(stale)} differ from "
                    f"a rescan (or the order does)")
        column = self._scan_selectable_column()
        if self._selectable_column != column:
            stale = [rack_id for rack_id, kept in
                     enumerate(self._selectable_column)
                     if rack_id >= len(column) or kept != column[rack_id]]
            raise SimulationError(
                f"stale selectable-rack column: ids {stale} differ from "
                f"a rescan (or its length does)")
        for rack in self.racks:
            if ((rack.pending_processing_time, rack.oldest_arrival)
                    != batch_facts(rack.pending_items)):
                raise SimulationError(
                    f"stale batch facts on rack {rack.rack_id}: "
                    f"pending_processing_time / oldest_arrival differ "
                    f"from a rescan of its pending_items")

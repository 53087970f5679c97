"""The live warehouse state shared by the simulator and the planners.

``WarehouseState`` owns the entity collections (racks, pickers, robots) and
the cheap indexes planners query every timestamp: racks per picker, idle
robots, racks with pending items.  It is the ``R``, ``P``, ``A`` triple of
the TPRW problem statement plus the grid they live on.

The idle robots and the selectable racks are each kept once, as a byte
column by id, beside a count of selectable racks per picker.  Only three
events change them — an item arrives (:meth:`~WarehouseState.deliver_item`),
a robot is dispatched for a rack (:meth:`~WarehouseState.dispatch`), a
robot sets a rack down at home (:meth:`~WarehouseState.return_home`) — and
each writes the bytes of the entities it changed.  The queries compress
the entity lists over the columns, so every list is ascending by id.
Every other write the simulator makes (a robot's later mission stages,
counters, locations) leaves idleness and selectability as they were.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..types import Tick
from .entities import (Item, Picker, Rack, RackPhase, Robot, RobotState,
                       batch_facts)
from .grid import Grid
from .layout import WarehouseLayout


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
    #: Each picker's rack ids, ascending, by picker id (fixed).
    _racks_by_picker: List[List[int]] = field(default_factory=list,
                                              repr=False)
    #: 1 per idle robot id / selectable rack id, and the selectable racks
    #: per picker id — derived data, written by the three transitions.
    _idle_column: bytearray = field(default_factory=bytearray, repr=False,
                                    compare=False)
    _selectable_column: bytearray = field(default_factory=bytearray,
                                          repr=False, compare=False)
    _selectable_count: List[int] = field(default_factory=list, repr=False,
                                         compare=False)

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
        """Adopt the entities and derive every index from scratch.  The
        indexes are by id, so an id must be its entity's list position."""
        for kind, entities in (("rack", self.racks), ("picker", self.pickers),
                               ("robot", self.robots)):
            for position, entity in enumerate(entities):
                if getattr(entity, f"{kind}_id") != position:
                    raise SimulationError(
                        f"the {kind} at list position {position} has id "
                        f"{getattr(entity, f'{kind}_id')}")
        self._racks_by_picker = [[] for __ in self.pickers]
        for rack in self.racks:
            if not 0 <= rack.picker_id < len(self.pickers):
                raise SimulationError(
                    f"rack {rack.rack_id} names picker {rack.picker_id}, "
                    f"but there are {len(self.pickers)} pickers")
            self._racks_by_picker[rack.picker_id].append(rack.rack_id)
        self._idle_column = self._scan_idle_column()
        self._selectable_column = self._scan_selectable_column()
        self._selectable_count = self._scan_selectable_count()

    def _scan_idle_column(self) -> bytearray:
        return bytearray(robot.is_idle for robot in self.robots)

    def _scan_selectable_column(self) -> bytearray:
        return bytearray(rack.selectable for rack in self.racks)

    def _scan_selectable_count(self) -> List[int]:
        return [sum(self.racks[rid].selectable for rid in rids)
                for rids in self._racks_by_picker]

    def _rack_changed(self, rack: Rack) -> None:
        """Write ``rack``'s byte after its ``phase`` / ``pending_items``
        changed; its picker's count moves only when the byte flips."""
        wanted = rack.selectable
        if self._selectable_column[rack.rack_id] != wanted:
            self._selectable_column[rack.rack_id] = wanted
            self._selectable_count[rack.picker_id] += 1 if wanted else -1

    # -- planner-facing queries ---------------------------------------------

    def idle_robots(self) -> List[Robot]:
        """The set A: robots able to accept a mission now, by id."""
        return list(compress(self.robots, self._idle_column))

    def selectable_racks(self) -> List[Rack]:
        """Racks home (STORED) with a pending item, ascending by id."""
        return list(compress(self.racks, self._selectable_column))

    def pickers_with_work(self) -> List[int]:
        """Ids of the pickers with a selectable rack, ascending."""
        return list(compress(range(len(self._selectable_count)),
                             self._selectable_count))

    def selectable_of_picker(self, picker_id: int) -> Iterator[Rack]:
        """``picker_id``'s selectable racks, ascending by id, lazily."""
        rack_ids = self._racks_by_picker[picker_id]
        return compress(map(self.racks.__getitem__, rack_ids),
                        map(self._selectable_column.__getitem__, rack_ids))

    def picker_index(self) -> Tuple[List[List[int]], List[int]]:
        """Each picker's rack ids, ascending, and its count of selectable
        racks, by picker id: what :meth:`pickers_with_work` and
        :meth:`selectable_of_picker` read.  The live lists: read, never
        mutate."""
        return self._racks_by_picker, self._selectable_count

    def selectable_column(self) -> bytearray:
        """``column[rack_id]`` is 1 where the rack is selectable, else 0.
        The live column: read, never mutate."""
        return self._selectable_column

    def dispatchable(self) -> bool:
        """Whether an idle robot and a selectable rack coexist (a
        ``memchr`` of each column).  The simulator's planner-wake
        condition: exactly the ticks at which the frozen per-tick
        engine's ``plan`` call did *not* take its side-effect-free early
        return."""
        return 1 in self._idle_column and 1 in self._selectable_column

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
        self._idle_column[robot.robot_id] = 0
        return batch

    def return_home(self, robot: Robot, rack: Rack, t: Tick) -> None:
        """``robot`` sets ``rack`` down at its home at ``t`` and goes idle."""
        robot.state = RobotState.IDLE
        robot.rack_id = None
        robot.location = rack.home
        rack.phase = RackPhase.STORED
        rack.last_return = t
        self._rack_changed(rack)
        self._idle_column[robot.robot_id] = 1

    def check_invariants(self) -> None:
        """Validate cross-entity invariants; raise on violation.

        Used by tests and (cheaply) by the simulator in debug runs:
        - a robot in a carrying state references an existing rack;
        - a rack IN_TRANSIT is referenced by exactly one busy robot;
        - picker queues only contain IN_TRANSIT racks;
        - the idle-robot and selectable-rack columns equal a rescan byte
          for byte, the per-picker counts equal a rescan, and every
          rack's batch facts equal a rescan of its ``pending_items`` —
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
        for name, kept, rescan in (
                ("idle-robot column", self._idle_column,
                 self._scan_idle_column()),
                ("selectable-rack column", self._selectable_column,
                 self._scan_selectable_column()),
                ("selectable-rack count", self._selectable_count,
                 self._scan_selectable_count())):
            if kept != rescan:
                stale = [i for i, value in enumerate(kept)
                         if i >= len(rescan) or value != rescan[i]]
                raise SimulationError(
                    f"stale {name}: ids {stale} differ from a rescan (or "
                    f"its length does)")
        for rack in self.racks:
            if ((rack.pending_processing_time, rack.oldest_arrival)
                    != batch_facts(rack.pending_items)):
                raise SimulationError(
                    f"stale batch facts on rack {rack.rack_id}: "
                    f"pending_processing_time / oldest_arrival differ "
                    f"from a rescan of its pending_items")

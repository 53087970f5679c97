"""The frozen per-tick simulation engine (pre-event-calendar reference).

This is the engine exactly as it shipped before the event-driven refactor:
an unconditional per-tick loop that touches every robot, picker, and the
planner every tick.  It is kept — like ``pathfinding/_legacy.py`` for the
search core — as the behavioural reference the equivalence suite compares
against.  The only adaptation is the planner housekeeping call, which now
goes through the span-aware ``advance(t, t)`` hook with one-tick spans,
so the semantics per tick are identical.

Do not extend this module; new behaviour goes into
:mod:`repro.sim.engine`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import SimulationConfig
from ..errors import SimulationError
from ..planners.base import Planner
from ..sim.engine import SimulationResult
from ..sim.metrics import (MetricsRecorder, RunMetrics,
                           picker_processing_rate, robot_working_rate)
from ..sim.missions import Mission, MissionStage
from ..sim.queueing import enqueue_rack, process_picker_tick
from ..sim.trace import BottleneckTrace
from ..types import Tick
from ..warehouse.entities import Item, RackPhase, RobotState
from ..warehouse.state import WarehouseState


class LegacySimulation:
    """One planner × one workload, advanced one tick at a time.

    Same construction contract as :class:`repro.sim.engine.Simulation`;
    see that class for parameter documentation.
    """

    def __init__(self, state: WarehouseState, planner: Planner,
                 items: Sequence[Item],
                 config: Optional[SimulationConfig] = None) -> None:
        if planner.state is not state:
            raise SimulationError(
                "planner must be constructed over the simulation's state")
        if not items:
            raise SimulationError("workload is empty")
        self.state = state
        self.planner = planner
        self.config = config if config is not None else SimulationConfig()
        self._items = sorted(items, key=lambda item: (item.arrival, item.item_id))
        self._next_item = 0
        self._active: Dict[int, Mission] = {}   # keyed by robot id
        self._batch_time_of: Dict[int, int] = {}  # rack id -> current batch time
        self._mission_of_rack: Dict[int, Mission] = {}
        self._completed: List[Mission] = []
        self._recorder = MetricsRecorder(len(self._items),
                                         self.config.metrics_checkpoints)
        self._trace = (BottleneckTrace()
                       if self.config.record_bottleneck_trace else None)
        self._paths: List = []
        self._path_owners: List[int] = []
        self._last_return: Tick = 0

    # -- the main loop -----------------------------------------------------

    def run(self) -> SimulationResult:
        """Run until the workload drains; return the collected metrics."""
        t: Tick = 0
        while True:
            self._inject_arrivals(t)
            if self._finished():
                break
            if t >= self.config.max_ticks:
                raise SimulationError(
                    f"simulation exceeded max_ticks={self.config.max_ticks} "
                    f"({self.state.total_pending_items()} items pending, "
                    f"{len(self._active)} missions active)")
            self._dispatch(t)
            self._advance_motion(t)
            self._advance_pickers(t)
            self._account(t)
            self.planner.advance(t, t)
            t += 1
        return self._result(t)

    def _finished(self) -> bool:
        return (self._next_item >= len(self._items)
                and self.state.total_pending_items() == 0
                and not self._active)

    # -- stage 1: arrivals ----------------------------------------------------

    def _inject_arrivals(self, t: Tick) -> None:
        while (self._next_item < len(self._items)
               and self._items[self._next_item].arrival <= t):
            self.state.deliver_item(self._items[self._next_item])
            self._next_item += 1

    # -- stage 2: planning ------------------------------------------------------

    def _dispatch(self, t: Tick) -> None:
        scheme = self.planner.plan(t)
        for assignment in scheme:
            robot = self.state.robots[assignment.robot_id]
            rack = self.state.racks[assignment.rack_id]
            if not robot.is_idle:
                raise SimulationError(
                    f"planner dispatched busy robot {robot.robot_id}")
            if rack.phase is not RackPhase.STORED or not rack.has_pending:
                raise SimulationError(
                    f"planner selected unavailable rack {rack.rack_id}")
            batch = self.state.dispatch(robot, rack)
            if self.config.collect_paths:
                self._paths.append(assignment.pickup_path)
                self._path_owners.append(robot.robot_id)
            mission = Mission(robot_id=robot.robot_id, rack_id=rack.rack_id,
                              batch=batch, path=assignment.pickup_path,
                              dispatched_at=t, stage_entered_at=t)
            self._active[robot.robot_id] = mission
            self._mission_of_rack[rack.rack_id] = mission
            self._batch_time_of[rack.rack_id] = mission.batch_processing_time
            # A robot already parked beneath the rack completes its pickup
            # leg instantly.
            if assignment.pickup_path.end_time <= t:
                self._complete_leg(mission, t)

    # -- stage 3: motion -----------------------------------------------------------

    def _advance_motion(self, t: Tick) -> None:
        for mission in list(self._active.values()):
            if not mission.stage.moving:
                continue
            path = mission.path
            if path is None:
                raise SimulationError(
                    f"moving mission (rack {mission.rack_id}) has no path")
            robot = self.state.robots[mission.robot_id]
            robot.location = path.cell_at(t + 1)
            if t + 1 >= path.end_time:
                self._complete_leg(mission, t + 1)

    def _complete_leg(self, mission: Mission, now: Tick) -> None:
        robot = self.state.robots[mission.robot_id]
        rack = self.state.racks[mission.rack_id]
        picker = self.state.pickers[rack.picker_id]

        # Fail-fast guard (the one post-freeze addition besides the
        # ``advance`` adaptation): the planning pipeline's wait tier
        # emits *partial* legs ending short of the stage target, which
        # only the event-driven engine knows how to continue.  Before
        # the pipeline this situation raised ``PathNotFoundError`` in
        # the planner; silently transitioning the stage here would
        # teleport the robot instead.
        if mission.stage.moving and mission.path is not None:
            target = (picker.location
                      if mission.stage is MissionStage.TO_PICKER
                      else rack.home)
            if mission.path.goal != target:
                raise SimulationError(
                    f"the frozen per-tick engine cannot execute partial "
                    f"legs (leg for rack {mission.rack_id} ends at "
                    f"{mission.path.goal}, stage target {target}); "
                    f"use repro.sim.engine.Simulation")

        if mission.stage is MissionStage.TO_RACK:
            path = self.planner.plan_leg(now, rack.home, picker.location)
            if self.config.collect_paths:
                self._paths.append(path)
                self._path_owners.append(mission.robot_id)
            mission.enter(MissionStage.TO_PICKER, now, path)
            robot.state = RobotState.TO_PICKER
            if path.end_time <= now:  # degenerate: rack home == picker cell
                self._complete_leg(mission, now)
        elif mission.stage is MissionStage.TO_PICKER:
            mission.enter(MissionStage.QUEUING, now)
            robot.state = RobotState.QUEUING
            enqueue_rack(picker, rack.rack_id,
                         self._batch_time_of[rack.rack_id])
        elif mission.stage is MissionStage.RETURNING:
            mission.enter(MissionStage.DONE, now)
            self.state.return_home(robot, rack, now)
            self._last_return = max(self._last_return, now)
            del self._active[mission.robot_id]
            del self._mission_of_rack[mission.rack_id]
            del self._batch_time_of[mission.rack_id]
            self._completed.append(mission)
        else:
            raise SimulationError(
                f"leg completion in non-moving stage {mission.stage.value}")

    # -- stage 4: pickers --------------------------------------------------------------

    def _advance_pickers(self, t: Tick) -> None:
        for picker in self.state.pickers:
            started: List[int] = []
            completion = process_picker_tick(picker, t, self._batch_time_of,
                                             self.state.racks, started)
            for rack_id in started:
                mission = self._mission_of_rack[rack_id]
                mission.enter(MissionStage.PROCESSING, t)
                self.state.robots[mission.robot_id].state = RobotState.PROCESSING
            if completion is not None:
                mission = self._mission_of_rack[completion.rack_id]
                self._recorder.note_items_processed(mission.n_items)
                rack = self.state.racks[completion.rack_id]
                path = self.planner.plan_leg(completion.completed_at,
                                             picker.location, rack.home)
                if self.config.collect_paths:
                    self._paths.append(path)
                    self._path_owners.append(mission.robot_id)
                mission.enter(MissionStage.RETURNING,
                              completion.completed_at, path)
                self.state.robots[mission.robot_id].state = RobotState.RETURNING
                if path.end_time <= completion.completed_at:
                    self._complete_leg(mission, completion.completed_at)

    # -- stage 5: accounting ------------------------------------------------------------

    def _account(self, t: Tick) -> None:
        transporting = queuing = processing = 0
        for mission in self._active.values():
            if mission.stage.moving:
                transporting += 1
            elif mission.stage is MissionStage.QUEUING:
                queuing += 1
            elif mission.stage is MissionStage.PROCESSING:
                processing += 1
        for robot in self.state.robots:
            if robot.state.busy:
                robot.busy_ticks += 1
        if self._trace is not None:
            self._trace.record(t, transporting, queuing, processing)

        elapsed = t + 1
        self._recorder.maybe_checkpoint(
            tick=t,
            ppr=picker_processing_rate(
                [p.busy_ticks for p in self.state.pickers], elapsed),
            rwr=robot_working_rate(
                [r.busy_ticks for r in self.state.robots], elapsed),
            selection_seconds=self.planner.stats.selection_seconds,
            planning_seconds=self.planner.stats.planning_seconds,
            memory_bytes=self.planner.memory_bytes())

    # -- result assembly -----------------------------------------------------------------

    def _result(self, final_tick: Tick) -> SimulationResult:
        makespan = self._last_return
        metrics = RunMetrics(
            makespan=makespan,
            items_processed=self._recorder.items_processed,
            missions_completed=len(self._completed),
            ppr=picker_processing_rate(
                [p.busy_ticks for p in self.state.pickers],
                max(makespan, 1)),
            rwr=robot_working_rate(
                [r.busy_ticks for r in self.state.robots],
                max(makespan, 1)),
            selection_seconds=self.planner.stats.selection_seconds,
            planning_seconds=self.planner.stats.planning_seconds,
            peak_memory_bytes=self._recorder.peak_memory,
            checkpoints=list(self._recorder.samples),
            # Tier-0 fast-path counters: unlike the fallback histogram
            # (partial legs, which this frozen engine predates and
            # rejects), the fast path serves byte-identical *complete*
            # legs, so the live planner accumulates them here exactly as
            # under the event engine — thread them through so the
            # engine-equivalence suite compares like with like.
            fastpath={
                "free_flow_legs": self.planner.stats.legs_free_flow,
                "audit_rejects": self.planner.stats.fastpath_audit_rejects,
                "misses": self.planner.stats.fastpath_misses,
            },
        )
        if metrics.items_processed != len(self._items):
            raise SimulationError(
                f"drained simulation processed {metrics.items_processed} of "
                f"{len(self._items)} items — accounting bug")
        return SimulationResult(planner_name=self.planner.name,
                                metrics=metrics, trace=self._trace,
                                missions=self._completed, paths=self._paths,
                                path_owners=self._path_owners)

"""The validation system: an event-driven warehouse simulator (Sec. VII-A).

Drives one planner over one workload: injects item arrivals, wakes the
planner whenever a dispatch is possible, converts planning schemes into
missions, materialises robot motion per conflict-free leg, runs the FCFS
pickers, and records every metric the paper reports.

Tick ``t`` covers the interval ``[t, t + 1)`` and keeps the frozen
per-tick semantics (see :mod:`repro.sim._legacy_engine`):

1. items with ``arrival == t`` emerge on their racks;
2. the planner emits ``U_t`` (selection + pickup legs starting at ``t``);
3. robots move along their legs; completed legs trigger the next mission
   stage, whose path starts at ``t + 1``;
4. pickers process; completed batches trigger return legs;
5. busy counters, the bottleneck trace, and metric checkpoints update.

The difference is *which* ticks execute.  A heapq calendar holds every
tick at which the world can change — the next item arrival, each moving
leg's completion trigger, each picker's batch pop/completion, and a
planner wake whenever an idle robot and a selectable rack coexist — and
the engine jumps straight from one such tick to the next.  The skipped
span is accounted analytically: busy-tick counters become lazy intervals
flushed at stage transitions and checkpoints, the bottleneck trace grows
one run-length segment per span (:meth:`BottleneckTrace.record_run`),
pickers fast-forward via :func:`advance_picker_span`, and the planner
receives the whole span at once through its span-aware
:meth:`~repro.planners.base.Planner.advance` hook.  Behaviour is
bit-identical to the frozen per-tick engine (the golden traces and the
``mini``-family equivalence suite enforce it); only wall-clock changes.

Robot motion is materialised per-leg: a robot's ``location`` is written
at its leg-completion event only.  Planners read it for *idle* robots
alone, for which it is exact; while a leg is under way the truth is
``mission.path`` (``path.cell_at(t)``), and consumers needing the
tick-by-tick trail expand a leg with
:meth:`~repro.pathfinding.paths.Path.cells_between`.

Since the planning pipeline (PR 4) a leg may be *partial*: a robot
whose search failed (boxed in, or out of expansion budget) plans a
wait-in-place.  The completion trigger of such a leg is a
**horizon-replan event**: instead of a stage transition, the
engine asks the planner (``continue_leg``) for the continuation from the
robot's current cell and re-enters the new leg's trigger into the
calendar — the mission stays in its stage throughout.  Runs in which
every search succeeds at the full tier (all golden and equivalence
workloads) never produce such events and are bit-identical to the frozen
per-tick engine.

The makespan is the tick at which the last rack lands back on its home
cell (Eq. 1).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..config import SimulationConfig
from ..errors import SimulationError
from ..pathfinding.paths import Path
from ..planners.base import Planner
from ..sim.ledger import MissionLedger
from ..sim.metrics import (MetricsRecorder, RunMetrics, SteadyStateTracker,
                           WindowSample, picker_processing_rate,
                           robot_working_rate)
from ..sim.missions import Mission, MissionStage
from ..sim.queueing import (advance_picker_span, enqueue_rack,
                            process_picker_tick,
                            ticks_until_next_picker_event)
from ..sim.trace import BottleneckTrace
from ..types import Tick
from ..warehouse.entities import Item, RobotState
from ..warehouse.state import WarehouseState

#: The order items are fed in: by arrival, ties by id.
_ARRIVAL_ORDER = attrgetter("arrival", "item_id")


class SimulationResult:
    """Everything a run produced: metrics, trace, and planner counters.

    Completed missions arrive as the engine's packed
    :class:`~repro.sim.ledger.MissionLedger` (or, from the frozen
    per-tick oracle, as its plain list, which is packed here).  Readers
    of the columns use ``ledger``; ``missions`` builds the objects on
    first access, so a run nobody inspects per cycle never pays for them.
    """

    def __init__(self, planner_name: str, metrics: RunMetrics,
                 trace: Optional[BottleneckTrace],
                 missions: Union[MissionLedger, List[Mission]],
                 paths: List[Path], path_owners: List[int]) -> None:
        self.planner_name = planner_name
        self.metrics = metrics
        self.trace = trace
        if isinstance(missions, MissionLedger):
            self.ledger, self._missions = missions, None
        else:
            self.ledger, self._missions = MissionLedger(missions), missions
        #: Every planned leg, when ``collect_paths`` was enabled.
        self.paths = paths
        #: Robot id owning each entry of ``paths`` (parallel list).
        self.path_owners = path_owners

    @property
    def missions(self) -> List[Mission]:
        """Completed missions, in completion order (per-cycle analyses)."""
        if self._missions is None:
            self._missions = self.ledger.missions()
        return self._missions


class Simulation:
    """One planner × one workload, run to completion on an event calendar.

    Parameters
    ----------
    state:
        The warehouse world (must be the same object the planner is bound
        to — re-planning every wake tick mutates it in place).
    planner:
        Any :class:`~repro.planners.base.Planner`.
    items:
        The full workload, each item stamped with its arrival tick.
    config:
        Simulation knobs; see :class:`~repro.config.SimulationConfig`.
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
        #: Items fed but not yet arrived, in ``(arrival, item_id)`` order;
        #: an arrival leaves the queue for its rack, so nothing consumed
        #: is retained here.
        self._items: Deque[Item] = deque(
            sorted(items, key=_ARRIVAL_ORDER))
        #: ``(arrival, item_id)`` of the last item fed (the order floor
        #: for :meth:`extend_items`, which may find the queue empty).
        self._tail_key = (self._items[-1].arrival, self._items[-1].item_id)
        self._active: Dict[int, Mission] = {}   # keyed by robot id
        self._batch_time_of: Dict[int, int] = {}  # rack id -> current batch time
        self._mission_of_rack: Dict[int, Mission] = {}
        #: Completed missions — the run's only record of them, and the
        #: one engine structure that grows with run length.  Not part of
        #: the pickled graph (see :meth:`__getstate__`).
        self.ledger = MissionLedger()
        #: Also the count of items fed so far (``total_items``).
        self._recorder = MetricsRecorder(len(self._items),
                                         self.config.metrics_checkpoints)
        self._trace = (BottleneckTrace()
                       if self.config.record_bottleneck_trace else None)
        self._paths: List[Path] = []
        self._path_owners: List[int] = []
        self._last_return: Tick = 0

        # -- event calendar + analytic span accounting ----------------------
        #: (trigger tick, mission dispatch seq, mission) — the seq keeps
        #: same-tick completions in legacy ``_active`` iteration order.
        self._motion_events: List[Tuple[Tick, int, Mission]] = []
        #: (trigger tick, picker id) — ties processed in picker-id order,
        #: matching the legacy per-tick picker sweep.
        self._picker_events: List[Tuple[Tick, int]] = []
        self._mission_seq = 0
        #: Dispatch sequence number of each robot's *current* mission —
        #: same-tick leg completions replay in dispatch order, exactly the
        #: frozen engine's ``_active`` insertion-order sweep.
        self._seq_of_robot: Dict[int, int] = {}
        #: Last tick each picker has processed (exact state as-of its end).
        self._picker_synced: List[Tick] = [-1] * len(state.pickers)
        #: Tick from which each busy robot's current busy interval runs.
        self._busy_since: Dict[int, Tick] = {}
        #: Items emerged but not yet batched (== state.total_pending_items()).
        self._n_pending = state.total_pending_items()
        # Instantaneous mission-stage decomposition (the Fig. 13 counts).
        self._n_transporting = 0
        self._n_queuing = 0
        self._n_processing = 0
        self._events_processed = 0
        #: The next tick to execute (the event clock).  ``run`` used to
        #: keep this in a loop local; promoting it to instance state is
        #: what lets a run pause (``run_until``), checkpoint, and resume
        #: without the loop noticing.
        self._t: Tick = 0

    def __getstate__(self):
        """The live graph only — what a checkpoint pickles.

        The ledger is history: :mod:`repro.sim.checkpoint` writes its
        columns beside the pickle and hands them back on restore, so a
        dump costs what is live, not what has happened.
        """
        state = self.__dict__.copy()
        state["ledger"] = None
        return state

    # -- the main loop -----------------------------------------------------

    def run(self) -> SimulationResult:
        """Run until the workload drains; return the collected metrics."""
        while self._advance_once():
            pass
        return self._result(self._t)

    def run_until(self, t_stop: Tick) -> Tick:
        """Execute events until the clock reaches ``t_stop`` (or drains).

        Runs exactly the :meth:`run` loop, stopping as soon as the next
        tick to execute is at or past ``t_stop`` — the executed prefix is
        bit-identical to the same span of an uninterrupted run, so a run
        driven through any sequence of ``run_until`` calls (the service
        loop) finishes with the exact result one ``run()`` call produces.
        Returns the clock, which may overshoot ``t_stop`` (the calendar
        jumps quiet spans) or stop short of it (the workload drained; see
        :meth:`extend_items` to feed more).
        """
        while self._t < t_stop and self._advance_once():
            pass
        return self._t

    def _advance_once(self) -> bool:
        """Execute the tick at the clock; ``False`` once drained."""
        t = self._t
        self._inject_arrivals(t)
        if self._finished():
            return False
        if t >= self.config.max_ticks:
            raise SimulationError(
                f"simulation exceeded max_ticks={self.config.max_ticks} "
                f"({self.state.total_pending_items()} items pending, "
                f"{len(self._active)} missions active)")
        if self.state.dispatchable():
            self._sync_world(t)
            self._dispatch(t)
        self._run_motion_events(t)
        self._run_picker_events(t)
        self._account(t)
        next_t = self._next_active_tick(t)
        self.planner.advance(t, next_t - 1)
        if self._trace is not None and next_t > t + 1:
            self._trace.record_run(t + 1, next_t - 1,
                                   self._n_transporting, self._n_queuing,
                                   self._n_processing)
        self._events_processed += 1
        self._t = next_t
        return True

    # -- service mode (open-ended streams) ---------------------------------

    @property
    def tick(self) -> Tick:
        """The next tick the event loop will execute."""
        return self._t

    @property
    def items_total(self) -> int:
        """Items fed so far (grows under :meth:`extend_items`)."""
        return self._recorder.total_items

    @property
    def items_processed(self) -> int:
        """Items whose picker batch has completed."""
        return self._recorder.items_processed

    @property
    def drained(self) -> bool:
        """Whether every fed item is processed and no mission is live."""
        return self._finished()

    def extend_items(self, items: Sequence[Item]) -> None:
        """Append future arrivals to the workload (service mode).

        The appended items must sort strictly after the current tail in
        ``(arrival, item_id)`` order and must not arrive before the
        clock: both are exactly the conditions under which feeding the
        stream in chunks is indistinguishable from having supplied every
        item up front, which is the service loop's determinism contract
        (checkpoint → restore → continue replays the same run).
        """
        if not items:
            return
        fresh = sorted(items, key=_ARRIVAL_ORDER)
        previous = self._tail_key
        for item in fresh:
            if (item.arrival, item.item_id) <= previous:
                raise SimulationError(
                    f"extended item {item.item_id} (arrival "
                    f"{item.arrival}) does not sort after the current "
                    f"tail item {previous[1]} (arrival {previous[0]})")
            if item.arrival < self._t:
                raise SimulationError(
                    f"extended item {item.item_id} arrives at "
                    f"{item.arrival}, before the clock ({self._t}) — "
                    f"past arrivals would diverge from an up-front feed")
            previous = (item.arrival, item.item_id)
        self._items.extend(fresh)
        self._tail_key = previous
        self._recorder.extend_total(self.items_total + len(fresh))

    def sample_window(self, tracker: SteadyStateTracker) -> WindowSample:
        """Close a steady-state window at the clock (service telemetry).

        Flushes the lazy busy intervals through the last decided tick so
        the cumulative busy totals are exact, then hands the totals to
        ``tracker`` (a :class:`~repro.sim.metrics.SteadyStateTracker`).
        Flushing only realises accounting the run would perform anyway,
        so sampling never perturbs the deterministic view.
        """
        if self._t > 0:
            self._flush_busy_counters(self._t - 1)
        return tracker.sample(
            tick=self._t,
            picker_busy_ticks=[p.busy_ticks for p in self.state.pickers],
            robot_busy_ticks=[r.busy_ticks for r in self.state.robots],
            items_processed=self._recorder.items_processed,
            legs_planned=self.planner.stats.legs_planned,
            memory_bytes=self.planner.memory_bytes())

    def result(self) -> SimulationResult:
        """The final metrics of a drained run (service-mode epilogue)."""
        if not self._finished():
            raise SimulationError(
                "result requested before the workload drained "
                f"({self.state.total_pending_items()} items pending, "
                f"{len(self._active)} missions active)")
        return self._result(self._t)

    def _finished(self) -> bool:
        return (not self._items
                and self._n_pending == 0
                and not self._active)

    @property
    def events_processed(self) -> int:
        """Active ticks executed so far (the base of ``bench/``'s
        ``engine.events_per_s``)."""
        return self._events_processed

    def _next_active_tick(self, t: Tick) -> Tick:
        """The earliest tick after ``t`` at which anything can change."""
        if self._finished():
            return t + 1
        nxt = self.config.max_ticks
        if self._items:
            nxt = min(nxt, self._items[0].arrival)
        if self._motion_events:
            nxt = min(nxt, self._motion_events[0][0])
        if self._picker_events:
            nxt = min(nxt, self._picker_events[0][0])
        if self.state.dispatchable():
            nxt = t + 1
        if nxt <= t:
            raise SimulationError(
                f"event calendar stalled at tick {t} (next event {nxt})")
        return nxt

    # -- stage 1: arrivals ----------------------------------------------------

    def _inject_arrivals(self, t: Tick) -> None:
        items = self._items
        while items and items[0].arrival <= t:
            self.state.deliver_item(items.popleft())
            self._n_pending += 1

    # -- stage 2: planning ------------------------------------------------------

    def _sync_world(self, t: Tick) -> None:
        """Bring the planner-visible world exactly to the top of tick ``t``.

        Pickers fast-forward to the end of tick ``t - 1`` (their
        ``finish_time_estimate`` and accumulated-processing counters feed
        every selector).  Only the pickers on the calendar can need it:
        every picker with a running batch has its completion queued in
        ``_picker_events`` (a picker without one accrues nothing), the
        ``synced`` check skips a picker's duplicate entries, and a span
        touches only its own picker and that picker's current rack, so
        the heap's order does not matter.  Robots need nothing: the idle
        ones, the only ones a planner locates, stand where their last leg
        ended.
        """
        synced = self._picker_synced
        pickers = self.state.pickers
        racks = self.state.racks
        for __, pid in self._picker_events:
            picker = pickers[pid]
            if picker.current_rack is not None and synced[pid] < t - 1:
                advance_picker_span(picker, racks, (t - 1) - synced[pid])
                synced[pid] = t - 1

    def _dispatch(self, t: Tick) -> None:
        scheme = self.planner.plan(t)
        for assignment in scheme:
            robot = self.state.robots[assignment.robot_id]
            rack = self.state.racks[assignment.rack_id]
            if not robot.is_idle:
                raise SimulationError(
                    f"planner dispatched busy robot {robot.robot_id}")
            if not rack.selectable:
                raise SimulationError(
                    f"planner selected unavailable rack {rack.rack_id}")
            batch = self.state.dispatch(robot, rack)
            self._record_path(robot.robot_id, assignment.pickup_path)
            mission = Mission(robot_id=robot.robot_id, rack_id=rack.rack_id,
                              batch=batch, path=assignment.pickup_path,
                              dispatched_at=t, stage_entered_at=t)
            self._active[robot.robot_id] = mission
            self._mission_of_rack[rack.rack_id] = mission
            self._batch_time_of[rack.rack_id] = mission.batch_processing_time
            self._n_pending -= len(batch)
            self._n_transporting += 1
            self._busy_since[robot.robot_id] = t
            self._mission_seq += 1
            self._seq_of_robot[robot.robot_id] = self._mission_seq
            # A robot already parked beneath the rack completes its pickup
            # leg instantly.
            if assignment.pickup_path.end_time <= t:
                self._complete_leg(mission, t, t)
            else:
                self._schedule_leg(mission)

    def _record_path(self, robot_id: int, path: Path) -> None:
        """Keep one planned leg in the result, when collection is on."""
        if self.config.collect_paths:
            self._paths.append(path)
            self._path_owners.append(robot_id)

    # -- stage 3: motion -----------------------------------------------------------

    def _run_motion_events(self, t: Tick) -> None:
        events = self._motion_events
        while events and events[0][0] <= t:
            trigger, seq, mission = heappop(events)
            if trigger < t or not mission.stage.moving:
                raise SimulationError(
                    f"stale motion event (tick {trigger}, mission of rack "
                    f"{mission.rack_id} in stage {mission.stage.value}) "
                    f"popped at tick {t}")
            path = mission.path
            if path is None:
                raise SimulationError(
                    f"moving mission (rack {mission.rack_id}) has no path")
            self.state.robots[mission.robot_id].location = path.cell_at(t + 1)
            self._complete_leg(mission, t + 1, t)

    def _schedule_leg(self, mission: Mission) -> None:
        """Register the completion trigger of the mission's current leg."""
        heappush(self._motion_events,
                 (mission.path.end_time - 1,
                  self._seq_of_robot[mission.robot_id], mission))

    def _stage_target(self, mission: Mission) -> Tuple[int, int]:
        """Where the current moving stage is headed."""
        rack = self.state.racks[mission.rack_id]
        if mission.stage is MissionStage.TO_PICKER:
            return self.state.pickers[rack.picker_id].location
        return rack.home  # TO_RACK and RETURNING both end at the home cell

    def _complete_leg(self, mission: Mission, now: Tick, tick: Tick) -> None:
        robot = self.state.robots[mission.robot_id]
        rack = self.state.racks[mission.rack_id]
        picker = self.state.pickers[rack.picker_id]

        if mission.stage.moving and mission.path is not None:
            target = self._stage_target(mission)
            if mission.path.goal != target:
                # Horizon-replan event: the finished leg was partial — a
                # wait-out after a failed search (see
                # repro.pathfinding.pipeline).  The mission stays in its
                # stage; the planner supplies the continuation from where
                # the robot stands and the new leg's completion trigger
                # re-enters the calendar.
                continuation = self.planner.continue_leg(
                    now, mission.path.goal, target)
                self._record_path(mission.robot_id, continuation)
                mission.resume(now, continuation)
                self._schedule_leg(mission)
                return

        if mission.stage is MissionStage.TO_RACK:
            path = self.planner.plan_leg(now, rack.home, picker.location)
            self._record_path(mission.robot_id, path)
            mission.enter(MissionStage.TO_PICKER, now, path)
            robot.state = RobotState.TO_PICKER
            if path.end_time <= now:  # degenerate: rack home == picker cell
                self._complete_leg(mission, now, tick)
            else:
                self._schedule_leg(mission)
        elif mission.stage is MissionStage.TO_PICKER:
            mission.enter(MissionStage.QUEUING, now)
            robot.state = RobotState.QUEUING
            self._n_transporting -= 1
            self._n_queuing += 1
            enqueue_rack(picker, rack.rack_id,
                         self._batch_time_of[rack.rack_id])
            # The picker must still take its turn *this* tick (a free
            # station pops the rack in the same tick it is delivered).
            heappush(self._picker_events, (tick, picker.picker_id))
        elif mission.stage is MissionStage.RETURNING:
            mission.enter(MissionStage.DONE, now)
            self.state.return_home(robot, rack, now)
            self._last_return = max(self._last_return, now)
            self._n_transporting -= 1
            robot.busy_ticks += (now - 1) - self._busy_since.pop(robot.robot_id)
            del self._seq_of_robot[mission.robot_id]
            del self._active[mission.robot_id]
            del self._mission_of_rack[mission.rack_id]
            del self._batch_time_of[mission.rack_id]
            self.ledger.append(mission)
        else:
            raise SimulationError(
                f"leg completion in non-moving stage {mission.stage.value}")

    # -- stage 4: pickers --------------------------------------------------------------

    def _run_picker_events(self, t: Tick) -> None:
        events = self._picker_events
        synced = self._picker_synced
        racks = self.state.racks
        while events and events[0][0] <= t:
            trigger, picker_id = heappop(events)
            if trigger < t:
                raise SimulationError(
                    f"stale picker event (picker {picker_id}, tick "
                    f"{trigger}) popped at tick {t}")
            if synced[picker_id] >= t:
                continue  # duplicate trigger for a tick already processed
            picker = self.state.pickers[picker_id]
            if picker.current_rack is not None:
                advance_picker_span(picker, racks, (t - 1) - synced[picker_id])
            synced[picker_id] = t
            started: List[int] = []
            completion = process_picker_tick(picker, t, self._batch_time_of,
                                             racks, started)
            for rack_id in started:
                mission = self._mission_of_rack[rack_id]
                mission.enter(MissionStage.PROCESSING, t)
                self.state.robots[mission.robot_id].state = RobotState.PROCESSING
                self._n_queuing -= 1
                self._n_processing += 1
            if completion is not None:
                mission = self._mission_of_rack[completion.rack_id]
                self._recorder.note_items_processed(mission.n_items)
                rack = racks[completion.rack_id]
                path = self.planner.plan_leg(completion.completed_at,
                                             picker.location, rack.home)
                self._record_path(mission.robot_id, path)
                mission.enter(MissionStage.RETURNING,
                              completion.completed_at, path)
                self.state.robots[mission.robot_id].state = RobotState.RETURNING
                self._n_processing -= 1
                self._n_transporting += 1
                if path.end_time <= completion.completed_at:
                    self._complete_leg(mission, completion.completed_at, t)
                else:
                    self._schedule_leg(mission)
            delay = ticks_until_next_picker_event(picker)
            if delay is not None:
                heappush(events, (t + delay, picker_id))

    # -- stage 5: accounting ------------------------------------------------------------

    def _account(self, t: Tick) -> None:
        # Memory is sampled here only at checkpoint boundaries, for the
        # Fig. 12 series: the planner keeps its own high-water mark (see
        # ``Planner.peak_memory_bytes``), which `_result` folds into the
        # recorder.  The boundary sample reads the exact end-of-event
        # value, since the event's commits and the span's purge run
        # before and after this hook respectively.
        if self._recorder.would_checkpoint():
            self._flush_busy_counters(t)
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
        if self._trace is not None:
            self._trace.record(t, self._n_transporting, self._n_queuing,
                               self._n_processing)

    def _flush_busy_counters(self, t: Tick) -> None:
        """Realise every lazy busy interval through the end of tick ``t``."""
        robots = self.state.robots
        for robot_id, since in self._busy_since.items():
            robots[robot_id].busy_ticks += (t + 1) - since
            self._busy_since[robot_id] = t + 1
        synced = self._picker_synced
        racks = self.state.racks
        for picker in self.state.pickers:
            pid = picker.picker_id
            if picker.current_rack is not None and synced[pid] < t:
                advance_picker_span(picker, racks, t - synced[pid])
                synced[pid] = t

    # -- result assembly -----------------------------------------------------------------

    def _result(self, final_tick: Tick) -> SimulationResult:
        makespan = self._last_return
        if makespan != final_tick:
            raise SimulationError(
                f"drained run ended at tick {final_tick} but the last rack "
                f"returned at {makespan} — elapsed-time accounting bug")
        # Fold the planner's high-water mark into the recorder's peak,
        # which has seen only the checkpoint boundaries.
        self._recorder.note_memory(self.planner.peak_memory_bytes)
        # The same denominator rule the checkpoints use (elapsed ticks at
        # sample time, here the full run), so the final PPR/RWR and a
        # checkpoint landing on the final accounted tick agree exactly.
        elapsed = max(final_tick, 1)
        metrics = RunMetrics(
            makespan=makespan,
            items_processed=self._recorder.items_processed,
            missions_completed=len(self.ledger),
            ppr=picker_processing_rate(
                [p.busy_ticks for p in self.state.pickers], elapsed),
            rwr=robot_working_rate(
                [r.busy_ticks for r in self.state.robots], elapsed),
            selection_seconds=self.planner.stats.selection_seconds,
            planning_seconds=self.planner.stats.planning_seconds,
            peak_memory_bytes=self._recorder.peak_memory,
            checkpoints=list(self._recorder.samples),
            fallback={
                "budget_exhausted": self.planner.stats.budget_exhausted_legs,
                "wait_legs": self.planner.stats.legs_wait,
                "horizon_replans": self.planner.stats.horizon_replans,
            },
            fastpath={
                "free_flow_legs": self.planner.stats.legs_free_flow,
                "audit_rejects": self.planner.stats.fastpath_audit_rejects,
                "misses": self.planner.stats.fastpath_misses,
                "rescued_legs": self.planner.stats.rescued_legs,
            },
        )
        if metrics.items_processed != self.items_total:
            raise SimulationError(
                f"drained simulation processed {metrics.items_processed} of "
                f"{self.items_total} items — accounting bug")
        return SimulationResult(planner_name=self.planner.name,
                                metrics=metrics, trace=self._trace,
                                missions=self.ledger, paths=self._paths,
                                path_owners=self._path_owners)

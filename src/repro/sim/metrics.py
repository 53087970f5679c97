"""Effectiveness and efficiency metrics (paper Sec. VII-A).

Effectiveness: **Makespan** (Eq. 1), **PPR** (Eq. 6, picker processing
rate) and **RWR** (Eq. 7, robot working rate).  Efficiency: **STC**
(selection time), **PTC** (planning time) and **MC** (memory consumption).

The Fig. 10–12 experiments plot these at ten evenly spaced *item-count*
checkpoints during the run; :class:`MetricsRecorder` snapshots each metric
the moment the cumulative processed-item count crosses a checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..types import Tick

#: Keys of the fallback-tier accounting attached to run metrics; a
#: missing dict (results produced by the frozen legacy engine, or stored
#: before PR 4) normalises to all-zero, which is also what any run that
#: never needed a fallback reports.
FALLBACK_KEYS = ("budget_exhausted", "wait_legs", "horizon_replans")

#: Keys of the tier-0 fast-path accounting attached to run metrics
#: (free-flow legs served without searching, candidates a reservation
#: audit rejected, legs with no auditable candidate, and — tier 0.5, a
#: subset of ``free_flow_legs`` — conflicted descents the wait-following
#: rescue served instead of the full search).  Same normalisation
#: contract as :data:`FALLBACK_KEYS`: a missing dict — results stored
#: before the fast path existed — reads all-zero.  The counters are
#: deterministic (they depend only on the run's seeds, never on timing),
#: so they survive :func:`~repro.sim.serialize.deterministic_view` and
#: compare exactly across serial and worker-pool runs.
FASTPATH_KEYS = ("free_flow_legs", "audit_rejects", "misses", "rescued_legs")


@dataclass(frozen=True)
class CheckpointSample:
    """All metric values at one item-count checkpoint."""

    items_processed: int
    tick: Tick
    ppr: float
    rwr: float
    selection_seconds: float
    planning_seconds: float
    memory_bytes: int


@dataclass
class RunMetrics:
    """Final metrics of one simulation run plus the checkpoint series.

    ``fallback`` is the pipeline's fallback accounting
    (:data:`FALLBACK_KEYS`): how many legs fell back to wait-in-place,
    how many of those because the full search ran out of expansion
    budget (the degraded legs), and how many horizon replans the engine
    issued for the resulting partial legs.  All-zero on any run the full
    search handled end to end.

    ``fastpath`` is the tier-0 accounting (:data:`FASTPATH_KEYS`): how
    many legs the free-flow fast path served without searching, and why
    the others fell through to the full search.  Unlike ``fallback`` it
    is *expected* to be non-zero on healthy runs — a high hit rate is the
    fast path doing its job.  Its ``rescued_legs`` is zero on every run
    below the paper-scale gate (the rescue defaults off there).
    """

    makespan: Tick = 0
    items_processed: int = 0
    missions_completed: int = 0
    ppr: float = 0.0
    rwr: float = 0.0
    selection_seconds: float = 0.0
    planning_seconds: float = 0.0
    peak_memory_bytes: int = 0
    checkpoints: List[CheckpointSample] = field(default_factory=list)
    fallback: Dict[str, int] = field(default_factory=dict)
    fastpath: Dict[str, int] = field(default_factory=dict)

    def fallback_view(self) -> Dict[str, int]:
        """``fallback`` with every key present (missing keys read 0)."""
        return {key: self.fallback.get(key, 0) for key in FALLBACK_KEYS}

    def fastpath_view(self) -> Dict[str, int]:
        """``fastpath`` with every key present (missing keys read 0)."""
        return {key: self.fastpath.get(key, 0) for key in FASTPATH_KEYS}


def _checkpoint_grid(total_items: int, n_checkpoints: int) -> List[int]:
    """Evenly spaced item-count thresholds ending exactly at the total.

    ``ceil(total · i / n)`` for ``i = 1..n``, deduplicated.  Strictly
    increasing by construction and always finishing at ``total_items``,
    so the final checkpoint is reachable for every workload size — the
    old ``step = total // n`` grid was non-monotonic when
    ``total < n`` (its clamp pulled the last threshold *below* earlier
    ones, so it never fired) and stopped short of the run's end whenever
    ``total % n != 0``.  When ``total`` is a multiple of ``n`` the grid
    equals the old one, keeping historical checkpoint series identical.
    """
    grid: List[int] = []
    for i in range(1, n_checkpoints + 1):
        threshold = -(-total_items * i // n_checkpoints)
        if not grid or threshold > grid[-1]:
            grid.append(threshold)
    return grid


class MetricsRecorder:
    """Accumulates metrics during a run and snapshots checkpoints.

    Parameters
    ----------
    total_items:
        Size of the workload; defines the checkpoint grid.
    n_checkpoints:
        How many evenly spaced checkpoints to record (paper: 10).
    """

    def __init__(self, total_items: int, n_checkpoints: int = 10) -> None:
        if total_items < 1:
            raise ValueError("total_items must be >= 1")
        if n_checkpoints < 1:
            raise ValueError("n_checkpoints must be >= 1")
        self.total_items = total_items
        self.n_checkpoints = n_checkpoints
        self._thresholds = _checkpoint_grid(total_items, n_checkpoints)
        self._next_checkpoint = 0
        self.samples: List[CheckpointSample] = []
        self.items_processed = 0
        self.peak_memory = 0

    @property
    def thresholds(self) -> List[int]:
        """The item-count checkpoint grid (ascending, ends at the total)."""
        return list(self._thresholds)

    def extend_total(self, new_total: int) -> None:
        """Grow the grid for a workload extended mid-run (service mode).

        The remaining thresholds are recomputed over ``new_total`` so the
        final checkpoint still lands exactly on the last item; thresholds
        at or below the items already processed are skipped — their
        samples belong to the grid that was in force when they crossed.
        """
        if new_total < self.total_items:
            raise ValueError(
                f"cannot shrink total_items from {self.total_items} "
                f"to {new_total}")
        if new_total == self.total_items:
            return
        self.total_items = new_total
        self._thresholds = _checkpoint_grid(new_total, self.n_checkpoints)
        self._next_checkpoint = 0
        while (self._next_checkpoint < len(self._thresholds)
               and self._thresholds[self._next_checkpoint]
               <= self.items_processed):
            self._next_checkpoint += 1

    def note_items_processed(self, count: int) -> None:
        """Record that ``count`` more items finished processing."""
        self.items_processed += count

    def note_memory(self, memory_bytes: int) -> None:
        """Fold one memory sample into the running peak.

        Peak tracking is decoupled from checkpoint emission: the
        event-driven engine feeds the checkpoint-boundary values and — at
        result assembly — the planner's own high-water mark
        (``Planner.peak_memory_bytes``, read before every purge), which is
        where the per-event memory sweep of earlier engine generations
        moved.
        """
        if memory_bytes > self.peak_memory:
            self.peak_memory = memory_bytes

    def would_checkpoint(self) -> bool:
        """Whether the item count has crossed the next pending threshold.

        Lets the engine skip computing the (comparatively expensive)
        rate inputs of :meth:`maybe_checkpoint` on the vast majority of
        ticks where no checkpoint can be emitted.
        """
        return (self._next_checkpoint < len(self._thresholds)
                and self.items_processed >= self._thresholds[self._next_checkpoint])

    def maybe_checkpoint(self, tick: Tick, ppr: float, rwr: float,
                         selection_seconds: float, planning_seconds: float,
                         memory_bytes: int) -> Optional[CheckpointSample]:
        """Snapshot a checkpoint if the item count crossed a threshold.

        Crossing several thresholds in one tick emits a single sample at
        the highest crossed threshold (the intermediate values would be
        identical anyway).
        """
        self.note_memory(memory_bytes)
        crossed = False
        while (self._next_checkpoint < len(self._thresholds)
               and self.items_processed >= self._thresholds[self._next_checkpoint]):
            self._next_checkpoint += 1
            crossed = True
        if not crossed:
            return None
        sample = CheckpointSample(
            items_processed=self.items_processed, tick=tick, ppr=ppr,
            rwr=rwr, selection_seconds=selection_seconds,
            planning_seconds=planning_seconds, memory_bytes=memory_bytes)
        self.samples.append(sample)
        return sample


def picker_processing_rate(busy_ticks_per_picker: List[int],
                           elapsed: Tick) -> float:
    """Eq. 6: mean over pickers of (processing ticks / elapsed time)."""
    if elapsed <= 0 or not busy_ticks_per_picker:
        return 0.0
    return sum(b / elapsed for b in busy_ticks_per_picker) / len(busy_ticks_per_picker)


def robot_working_rate(busy_ticks_per_robot: List[int],
                       elapsed: Tick) -> float:
    """Eq. 7: mean over robots of (working ticks / elapsed time)."""
    if elapsed <= 0 or not busy_ticks_per_robot:
        return 0.0
    return sum(b / elapsed for b in busy_ticks_per_robot) / len(busy_ticks_per_robot)


# -- steady-state windows (service mode) -------------------------------------


@dataclass(frozen=True)
class WindowSample:
    """Metrics over one tick window ``[window_start, window_end)``.

    The since-tick-0 rates of :class:`CheckpointSample` converge to the
    lifetime mean on an open-ended run and stop saying anything about the
    *current* regime after a few hours of stream; the window sample is
    the same PPR/RWR definitions with the window's own length as the
    denominator, plus the throughput rates a service operator actually
    watches (items and planned legs per tick) and the live structure
    footprint at the window boundary.
    """

    window_start: Tick
    window_end: Tick
    items_processed: int
    legs_planned: int
    ppr: float
    rwr: float
    items_per_tick: float
    legs_per_tick: float
    memory_bytes: int


class SteadyStateTracker:
    """Turns cumulative counters into rolling per-window rates.

    The engine (or the soak harness) feeds it the *cumulative* totals at
    each window boundary — picker/robot busy ticks, items processed, legs
    planned — and the tracker differences them against the previous
    boundary, so the instrumented loop never maintains per-window state
    itself.  Window boundaries need not be exactly ``window_ticks`` apart
    (the event engine lands on the first executed tick at or past each
    boundary); rates always use the *actual* span between samples.
    """

    def __init__(self, window_ticks: int) -> None:
        if window_ticks < 1:
            raise ValueError(
                f"window_ticks must be >= 1, got {window_ticks}")
        self.window_ticks = window_ticks
        self.samples: List[WindowSample] = []
        self._last_tick: Tick = 0
        self._last_picker_busy = 0
        self._last_robot_busy = 0
        self._last_items = 0
        self._last_legs = 0

    @property
    def next_boundary(self) -> Tick:
        """The first tick at or past which the next sample is due."""
        return self._last_tick + self.window_ticks

    def sample(self, tick: Tick, picker_busy_ticks: List[int],
               robot_busy_ticks: List[int], items_processed: int,
               legs_planned: int, memory_bytes: int) -> WindowSample:
        """Close the window ending at ``tick`` from cumulative totals."""
        span = tick - self._last_tick
        if span < 1:
            raise ValueError(
                f"window sample at tick {tick} does not advance past the "
                f"previous boundary {self._last_tick}")
        picker_busy = sum(picker_busy_ticks)
        robot_busy = sum(robot_busy_ticks)
        n_pickers = max(len(picker_busy_ticks), 1)
        n_robots = max(len(robot_busy_ticks), 1)
        window = WindowSample(
            window_start=self._last_tick,
            window_end=tick,
            items_processed=items_processed - self._last_items,
            legs_planned=legs_planned - self._last_legs,
            ppr=(picker_busy - self._last_picker_busy) / (span * n_pickers),
            rwr=(robot_busy - self._last_robot_busy) / (span * n_robots),
            items_per_tick=(items_processed - self._last_items) / span,
            legs_per_tick=(legs_planned - self._last_legs) / span,
            memory_bytes=memory_bytes)
        self.samples.append(window)
        self._last_tick = tick
        self._last_picker_busy = picker_busy
        self._last_robot_busy = robot_busy
        self._last_items = items_processed
        self._last_legs = legs_planned
        return window

"""Span tracer for the benchmark: timing shims around each layer's public calls.

The program has no tracing of its own yet, so the traced pass wraps the
public entry points of every layer (this repo's modules) from out here:
a *shim* replaces a method on its class — or a function in the module
namespace that calls it — with a wrapper that records one span
``(name, parent, cell, start, end)`` per call, and is removed again when
the pass ends.  Spans stay in memory until :meth:`Tracer.dump`.  ``start``
and ``end`` are ``perf_counter`` readings; every duration reported is the
difference of their work seconds (see ``workclock.py``).

A layer's *self time* is its spans' duration minus the part their child
spans cover, so the self times of every span of a pass sum to the pass
exactly; whatever no shim covers stays visible as the self time of the
benchmark's own ``bench.*`` phase spans.

The untraced passes use the same :class:`Tracer` for their handful of
phase spans (set-up, drain, finish) and install no layer shims.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Phase whose subtree is the service workload's restore proof: it replays
#: half the run a second time, so its spans are kept out of the per-layer
#: totals (its whole duration is reported as ``checkpoint.restore_s``).
PROOF_PHASE = "bench.proof"


@dataclass
class Totals:
    """What the spans of one name add up to within a pass."""

    #: Outermost spans only (a shimmed method calling its shimmed
    #: ``super()`` is one call).
    calls: int = 0
    #: Σ duration of the outermost spans.
    inclusive: float = 0.0
    #: Σ (duration − children) over every span of the name.
    self_time: float = 0.0
    #: Duration of each outermost span, for percentiles.
    durations: List[float] = field(default_factory=list)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Cell labels; ``cell_of`` indexes this list.
        self.cells: List[str] = ["-"]
        self.cell = 0
        # One span per index, held as columns of scalars: per-span
        # containers would each be tracked by the garbage collector, and
        # a traced pass records a few hundred thousand of them.
        self.name_of: List[int] = []
        self.parent_of: List[int] = []
        self.cell_of: List[int] = []
        self.start_of: List[float] = []
        self.end_of: List[float] = []
        self._stack: List[int] = [-1]
        #: Simulations constructed while layer shims were installed; their
        #: counters (``PlannerStats``, ``events_processed``) are read when
        #: the pass ends.
        self.sims: List[Any] = []
        #: High-water mark of ``ReservationTable.memory_bytes`` sampled
        #: after every traced ``reserve_path``.
        self.reservation_peak = 0

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def set_cell(self, label: str) -> None:
        """Label the spans that follow with ``label`` (one matrix cell)."""
        if label not in self.cells:
            self.cells.append(label)
        self.cell = self.cells.index(label)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around the ``with`` body; yields its id."""
        index = self._open(self._name_id(name))
        try:
            yield index
        finally:
            self.end_of[index] = perf_counter()
            self._stack.pop()

    def _open(self, name_id: int) -> int:
        index = len(self.name_of)
        self.name_of.append(name_id)
        self.parent_of.append(self._stack[-1])
        self.cell_of.append(self.cell)
        self.end_of.append(0.0)
        self._stack.append(index)
        self.start_of.append(perf_counter())
        return index

    def __len__(self) -> int:
        return len(self.name_of)

    # -- shims ---------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        name_id = self._name_id(name)
        open_span, end_of, stack = self._open, self.end_of, self._stack
        clock = perf_counter

        if before is None and after is None:
            def shim(*args, **kwargs):
                index = open_span(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end_of[index] = clock()
                    stack.pop()
        else:
            def shim(*args, **kwargs):
                if before is not None:
                    before(*args)
                index = open_span(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end_of[index] = clock()
                    stack.pop()
                    if after is not None:
                        after(*args)
        shim._bench_name = name
        return shim

    @contextmanager
    def shimmed(self, owner: Any, attr: str, name: str,
                before: Optional[Callable] = None,
                after: Optional[Callable] = None) -> Iterator[None]:
        """Time every call of ``owner.attr`` as a span for the ``with`` body.

        ``owner`` is a class or a module.  For a class the wrapper goes on
        the class that *defines* ``attr``, so subclasses sharing one
        implementation are wrapped once.
        """
        if isinstance(owner, type):
            owner = next(klass for klass in owner.__mro__
                         if attr in klass.__dict__)
        original = owner.__dict__[attr]
        if getattr(original, "_bench_name", None) == name:
            yield  # already wrapped under this name via another subclass
            return
        setattr(owner, attr, self._wrap(original, name, before, after))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    @contextmanager
    def layer_shims(self) -> Iterator[None]:
        """Install every layer shim for the ``with`` body (the traced pass)."""
        with ExitStack() as stack:
            for owner, attr, name, before, after in _layer_table(self):
                stack.enter_context(
                    self.shimmed(owner, attr, name, before, after))
            yield

    # -- reading -------------------------------------------------------------

    def totals(self, root: int, stop: int, seconds: Callable
               ) -> Tuple[Dict[str, Totals], float]:
        """Per-name totals of the pass in spans ``root:stop``, and its self sum.

        ``root`` is the pass's outermost span and every span up to ``stop``
        one of its descendants; ``seconds`` maps ``perf_counter`` readings
        to the seconds durations are counted in.  Spans below a
        :data:`PROOF_PHASE` span count toward the self sum (it must close
        on the pass) but toward no name's totals.
        """
        names = self.name_of[root:stop]
        parents = [parent - root for parent in self.parent_of[root:stop]]
        durations = (seconds(self.end_of[root:stop])
                     - seconds(self.start_of[root:stop])).tolist()
        covered = [0.0] * len(names)
        for index in range(1, len(names)):
            covered[parents[index]] += durations[index]
        proof_id = self._name_ids.get(PROOF_PHASE, -1)
        in_proof = [False] * len(names)  # strictly below a proof span
        totals: Dict[str, Totals] = {}
        self_sum = 0.0
        for index, (name, parent) in enumerate(zip(names, parents)):
            own = durations[index] - covered[index]
            self_sum += own
            if index and (in_proof[parent] or names[parent] == proof_id):
                in_proof[index] = True
                continue
            entry = totals.setdefault(self.names[name], Totals())
            entry.self_time += own
            if not index or names[parent] != name:
                entry.calls += 1
                entry.inclusive += durations[index]
                entry.durations.append(durations[index])
        return totals, self_sum

    def dump(self, path, seconds: Callable) -> None:
        """Write every span as ``[id, parent, cell, name, start, end]``.

        ``start`` and ``end`` are written in ``seconds`` (see :meth:`totals`).
        """
        payload = {
            "columns": ["id", "parent", "cell", "name", "start", "end"],
            "names": self.names,
            "cells": self.cells,
            "spans": [list(span) for span in zip(
                range(len(self)), self.parent_of, self.cell_of,
                self.name_of, seconds(self.start_of).tolist(),
                seconds(self.end_of).tolist())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


def _layer_table(tracer: Tracer):
    """``(owner, attr, span name, before, after)`` for every layer shim.

    Imported here, not at module load: the benchmark puts ``src/`` on the
    path and builds the kernel before the program is first imported.
    """
    from repro.experiments import harness
    from repro.experiments.store import ResultStore
    from repro.pathfinding import pipeline, st_astar
    from repro.pathfinding.cdt import (ConflictDetectionTable,
                                       ShardedConflictDetectionTable)
    from repro.pathfinding.free_flow import FreeFlowPathCache
    from repro.pathfinding.heuristics import HeuristicFieldCache
    from repro.pathfinding.spatiotemporal_graph import (
        ShardedSpatiotemporalGraph, SpatiotemporalGraph)
    from repro.planners import PLANNERS, Planner
    from repro.sim.engine import Simulation
    from repro.warehouse.knn import StaticRackKNN
    from repro.warehouse.state import WarehouseState
    from repro.workloads.scenario import ScenarioSpec

    def note_reservation_peak(table, *_):
        footprint = table.memory_bytes()
        if footprint > tracer.reservation_peak:
            tracer.reservation_peak = footprint

    def enter_cell(cell, *_):
        tracer.set_cell(cell.cell_id)

    table = [
        (ScenarioSpec, "build", "workloads.build"),
        (StaticRackKNN, "__init__", "warehouse.knn_build"),
        (WarehouseState, "idle_robots", "warehouse.scan"),
        (WarehouseState, "selectable_racks", "warehouse.scan"),
        (Planner, "plan", "planners.plan"),
        (Planner, "plan_leg", "planners.leg"),
        (Planner, "continue_leg", "planners.leg"),
        (Planner, "advance", "planners.advance"),
        (pipeline.FallbackChain, "plan_leg", "pipeline.plan_leg"),
        (FreeFlowPathCache, "kernel_leg", "pipeline.tier0"),
        (FreeFlowPathCache, "packed", "pipeline.tier0"),
        # ``find_path`` reaches ``search`` through st_astar's namespace,
        # the windowed tier through pipeline's imported name.
        (st_astar, "search", "st_astar.search"),
        (pipeline, "search", "st_astar.search"),
        (HeuristicFieldCache, "field", "heuristics.field"),
        (Simulation, "run", "engine.run"),
        (Simulation, "run_until", "engine.run"),
        (Simulation, "extend_items", "engine.run"),
        (Simulation, "sample_window", "engine.run"),
        (harness, "result_to_dict", "serialize"),
        (ResultStore, "save", "harness.store"),
    ]
    rows = [(owner, attr, name, None, None) for owner, attr, name in table]
    rows.append((Simulation, "__init__", "engine.construct", None,
                 lambda sim, *_: tracer.sims.append(sim)))
    rows.append((harness, "execute_cell", "harness.cell", enter_cell, None))
    for planner in PLANNERS.values():
        rows.append((planner, "__init__", "planners.construct", None, None))
    for tables in (SpatiotemporalGraph, ShardedSpatiotemporalGraph,
                   ConflictDetectionTable, ShardedConflictDetectionTable):
        rows.append((tables, "reserve_path", "reservation.reserve", None,
                     note_reservation_peak))
        rows.append((tables, "purge_before", "reservation.purge", None, None))
        rows.append((tables, "audit_path", "reservation.audit", None, None))
        rows.append((tables, "audit_chain", "reservation.audit", None, None))
    return rows

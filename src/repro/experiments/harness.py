"""Shared experiment harness: the (scenario × planner) matrix runner.

Every table/figure regenerator in this package goes through the same
entry points, so all experiments share one world-building path and a
planner never sees a world another planner has touched:

* :func:`run_planner` — one in-process run, the unit tests' workhorse;
* :func:`run_matrix` — a grid of :class:`MatrixCell` s fanned out over a
  ``ProcessPoolExecutor``, each finished cell streamed into a JSON
  :class:`~repro.experiments.store.ResultStore` and skipped on re-runs.

Determinism: a cell is (spec, planner name, configs) — plain picklable
data — and every worker materialises its world from the spec's embedded
seeds, so a cell's :func:`~repro.sim.serialize.deterministic_view` is
identical whether it ran serially, in a pool, or on another machine.
Only the wall-clock timing fields differ.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..config import Domain, PlannerConfig, SimulationConfig, declare
from ..errors import ConfigurationError, WorkerLostError
from ..planners import PLANNERS
from ..sim.engine import Simulation, SimulationResult
from ..sim.serialize import result_to_dict
from ..workloads.scenario import TAG_SKIP_SLOW_PLANNERS, ScenarioSpec
from .store import ResultStore, assert_unique_filenames

#: The evaluation order of the paper's tables.
DEFAULT_PLANNERS = ("NTP", "LEF", "ILP", "ATP", "EATP")

#: Planners the paper could not run on Real-Large ("too slow to execute");
#: kept skippable here for fidelity with Table III's missing cells.
SLOW_PLANNERS = ("LEF", "ILP")


def run_planner(scenario: ScenarioSpec, planner_name: str,
                planner_config: Optional[PlannerConfig] = None,
                sim_config: Optional[SimulationConfig] = None
                ) -> SimulationResult:
    """Run one planner over a fresh build of ``scenario``."""
    if planner_name not in PLANNERS:
        raise KeyError(f"unknown planner {planner_name!r}; "
                       f"choose from {sorted(PLANNERS)}")
    state, items = scenario.build()
    planner = PLANNERS[planner_name](state, planner_config)
    return Simulation(state, planner, items, sim_config).run()


# -- the parallel matrix -----------------------------------------------------


@dataclass(frozen=True)
class MatrixCell:
    """One unit of matrix work: a scenario spec bound to one planner.

    Everything here is plain picklable data; a worker process rebuilds
    the whole world from it.  ``cell_id`` doubles as the result filename
    stem, so it must be unique within a matrix: the default id is
    ``<scenario>--<planner>``, extended with a config digest whenever a
    non-default config is attached — a stored cell must never be mistaken
    for one computed under different knobs.
    """

    scenario: ScenarioSpec
    planner: str
    planner_config: Optional[PlannerConfig] = None
    sim_config: Optional[SimulationConfig] = None
    #: Optional explicit id override (sweeps label their own cells).
    label: str = ""

    @property
    def cell_id(self) -> str:
        if self.label:
            return self.label
        base = f"{self.scenario.name}--{self.planner}"
        if self.planner_config is None and self.sim_config is None:
            return base
        # Frozen dataclass reprs list every field, so the digest changes
        # iff some knob does.
        digest = hashlib.sha256(
            repr((self.planner_config, self.sim_config)).encode("utf-8")
        ).hexdigest()[:8]
        return f"{base}--cfg-{digest}"


def plan_cells(scenarios: Iterable[ScenarioSpec],
               planners: Sequence[str] = DEFAULT_PLANNERS,
               planner_config: Optional[PlannerConfig] = None,
               sim_config: Optional[SimulationConfig] = None,
               skip_slow_on: Iterable[str] = ("Real-Large",)) -> List[MatrixCell]:
    """Cross scenarios with planners into cells, honouring the slow-skips.

    A scenario excludes :data:`SLOW_PLANNERS` when its name is listed in
    ``skip_slow_on`` *or* it carries
    :data:`~repro.workloads.scenario.TAG_SKIP_SLOW_PLANNERS` (families
    that rebuild the Real-Large floor under other names, like the fleet
    ladder, tag themselves).
    """
    cells = []
    slow_scenarios = set(skip_slow_on)
    for scenario in scenarios:
        skip_slow = (scenario.name in slow_scenarios
                     or TAG_SKIP_SLOW_PLANNERS in scenario.tags)
        for planner in planners:
            if skip_slow and planner in SLOW_PLANNERS:
                continue
            cells.append(MatrixCell(scenario=scenario, planner=planner,
                                    planner_config=planner_config,
                                    sim_config=sim_config))
    return cells


def execute_cell(cell: MatrixCell) -> Dict[str, Any]:
    """Run one cell to completion; the worker-side entry point.

    Module-level (not a closure) so ``ProcessPoolExecutor`` can pickle it
    under any start method.  Returns a JSON-serialisable payload carrying
    the cell's identity, the scenario spec for provenance, the serialised
    result, and the cell's wall-clock (``wall_s`` — a measurement, so it
    sits outside ``result`` and the deterministic view).
    """
    started = time.perf_counter()
    result = run_planner(cell.scenario, cell.planner,
                         cell.planner_config, cell.sim_config)
    return {
        "cell_id": cell.cell_id,
        "scenario": cell.scenario.name,
        "planner": cell.planner,
        "spec": cell.scenario.spec_dict(),
        "result": result_to_dict(result),
        "wall_s": time.perf_counter() - started,
    }


@declare(workers=Domain(int, 0))
def run_matrix(cells: Sequence[MatrixCell], workers: int = 0,
               store: Optional[ResultStore] = None,
               progress: Optional[Callable[[str, str], None]] = None
               ) -> Dict[str, Dict[str, Any]]:
    """Run a cell grid, in parallel, resuming from ``store`` if given.

    Parameters
    ----------
    cells:
        The grid; cell ids must be unique.
    workers:
        ``0`` runs every cell serially in this process (bit-identical
        payloads aside from wall-clock timings); ``n >= 1`` fans cells
        out over a ``ProcessPoolExecutor`` with ``n`` workers.
    store:
        Optional on-disk store.  Cells whose file already exists are
        *not* re-run — their stored payload is returned, provided it
        records the cell's id and spec (any other payload is a
        :class:`~repro.errors.ConfigurationError`) — and every
        freshly finished cell is written the moment it completes, so an
        interrupted matrix resumes where it died (a dead worker ends in
        :class:`~repro.errors.WorkerLostError`, after the saves).
    progress:
        Optional callback ``(cell_id, status)`` with status ``"cached"``
        (resumed from the store), ``"queued"`` (submitted to the pool),
        ``"start"`` (beginning serially in this process) or ``"done"``
        (the CLI's progress line).

    Returns
    -------
    ``{cell_id: payload}`` in the order of ``cells``.
    """
    # Deduplicate on the *filename* the store would use, so ids that
    # sanitise to the same file cannot silently overwrite each other.
    assert_unique_filenames(cell.cell_id for cell in cells)
    ids = [cell.cell_id for cell in cells]

    notify = progress if progress is not None else (lambda cell_id, status: None)
    payloads: Dict[str, Dict[str, Any]] = {}
    pending: List[MatrixCell] = []
    for cell in cells:
        if store is not None and store.has(cell.cell_id):
            payload = store.load(cell.cell_id)
            # A stored payload must record the cell id and the spec that
            # made it; resuming from another's would serve wrong results.
            stored_id = payload.get("cell_id", cell.cell_id)
            if stored_id != cell.cell_id:
                raise ConfigurationError(
                    f"result file for {cell.cell_id!r} was written by "
                    f"{stored_id!r}; delete it to recompute")
            missing = sorted({"cell_id", "spec"} - payload.keys())
            if missing:
                raise ConfigurationError(
                    f"result file for {cell.cell_id!r} records no "
                    f"{missing[0]!r}; delete it to recompute")
            spec = json.loads(json.dumps(cell.scenario.spec_dict()))
            if payload["spec"] != spec:  # a changed registry
                key = next(key for key in {**payload["spec"], **spec}
                           if payload["spec"].get(key) != spec.get(key))
                raise ConfigurationError(
                    f"result file for {cell.cell_id!r} holds another spec "
                    f"(its {key!r} differs); delete it to recompute")
            payloads[cell.cell_id] = payload
            notify(cell.cell_id, "cached")
        else:
            pending.append(cell)

    def finish(cell: MatrixCell, payload: Dict[str, Any]) -> None:
        if store is not None:
            store.save(cell.cell_id, payload)
        payloads[cell.cell_id] = payload
        notify(cell.cell_id, "done")

    if workers == 0 or len(pending) <= 1:
        for cell in pending:
            notify(cell.cell_id, "start")
            finish(cell, execute_cell(cell))
    else:
        with ProcessPoolExecutor(
                max_workers=min(workers, len(pending))) as pool:
            futures = {}
            for cell in pending:
                notify(cell.cell_id, "queued")
                try:
                    futures[pool.submit(execute_cell, cell)] = cell
                except BrokenProcessPool:
                    break   # a worker died early: the rest never run
            lost = ({cell.cell_id for cell in pending}
                    - {cell.cell_id for cell in futures.values()})
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining,
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    if isinstance(future.exception(), BrokenProcessPool):
                        lost.add(futures[future].cell_id)
                    else:
                        finish(futures[future], future.result())
        if lost:
            raise WorkerLostError(
                cell.cell_id for cell in pending if cell.cell_id in lost)

    return {cell_id: payloads[cell_id] for cell_id in ids}

"""Serialisation of :class:`~repro.sim.engine.SimulationResult` to JSON.

Two consumers share this layer: the parallel experiment matrix (worker
processes return plain dicts that the parent streams into per-cell JSON
files) and the golden-trace regression suite (small results frozen under
``tests/golden/`` and diffed field by field).

Wall-clock fields (``selection_seconds`` / ``planning_seconds``) are
*measurements*, not functions of the seed, so they can never be
bit-identical across runs or processes.  :func:`deterministic_view` strips
them recursively; everything else — makespan, rates, memory, the
bottleneck trace, the mission order — is reproducible from a scenario
spec's seeds and compares exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .engine import SimulationResult
from .metrics import (FALLBACK_KEYS, FASTPATH_KEYS, CheckpointSample,
                      RunMetrics, WindowSample)
from .trace import BottleneckTrace

#: Keys holding wall-clock measurements, excluded from exact comparisons.
TIMING_KEYS = frozenset({"selection_seconds", "planning_seconds", "wall_s"})


def metrics_to_dict(metrics: RunMetrics) -> Dict[str, Any]:
    """Serialise final metrics plus the checkpoint series."""
    return {
        "makespan": metrics.makespan,
        "items_processed": metrics.items_processed,
        "missions_completed": metrics.missions_completed,
        "ppr": metrics.ppr,
        "rwr": metrics.rwr,
        "selection_seconds": metrics.selection_seconds,
        "planning_seconds": metrics.planning_seconds,
        "peak_memory_bytes": metrics.peak_memory_bytes,
        # Normalised (every key present, absent dict reads all-zero) so
        # payloads from the frozen legacy engine — which predates the
        # fallback chain and never sets the counters — compare equal
        # to an event-engine run that needed no fallbacks.
        "fallback": metrics.fallback_view(),
        # Tier-0 fast-path counters, same normalisation contract; both
        # engines thread them from the live planner stats, so legacy-vs-
        # event equivalence comparisons see identical values.
        "fastpath": metrics.fastpath_view(),
        "checkpoints": [
            {"items_processed": c.items_processed, "tick": c.tick,
             "ppr": c.ppr, "rwr": c.rwr,
             "selection_seconds": c.selection_seconds,
             "planning_seconds": c.planning_seconds,
             "memory_bytes": c.memory_bytes}
            for c in metrics.checkpoints],
    }


def trace_to_dict(trace: Optional[BottleneckTrace]
                  ) -> Optional[List[Dict[str, int]]]:
    """Serialise the bottleneck trace as a list of per-tick samples."""
    if trace is None:
        return None
    return [
        {"tick": s.tick, "transporting": s.transporting,
         "queuing": s.queuing, "processing": s.processing,
         "cum_transport": s.cum_transport, "cum_queuing": s.cum_queuing,
         "cum_processing": s.cum_processing}
        for s in trace.samples]


def trace_from_dict(samples: List[Dict[str, int]]) -> BottleneckTrace:
    """Rebuild a :class:`BottleneckTrace` from its serialised samples."""
    trace = BottleneckTrace()
    for sample in samples:
        trace.record(tick=sample["tick"],
                     transporting=sample["transporting"],
                     queuing=sample["queuing"],
                     processing=sample["processing"])
    return trace


def window_to_dict(sample: WindowSample) -> Dict[str, Any]:
    """Serialise one steady-state window (service-mode telemetry)."""
    return {
        "window_start": sample.window_start,
        "window_end": sample.window_end,
        "items_processed": sample.items_processed,
        "legs_planned": sample.legs_planned,
        "ppr": sample.ppr,
        "rwr": sample.rwr,
        "items_per_tick": sample.items_per_tick,
        "legs_per_tick": sample.legs_per_tick,
        "memory_bytes": sample.memory_bytes,
    }


def window_from_dict(payload: Dict[str, Any]) -> WindowSample:
    """Rebuild a :class:`WindowSample` from :func:`window_to_dict` output."""
    return WindowSample(**payload)


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Serialise one run: metrics, trace, and the completed mission order.

    Missions record the fields that make the run's *logic* auditable
    (which robot fulfilled which rack with which items, and when) — not
    the per-leg paths, which would dwarf the payload.  They are read off
    the ledger's columns; no :class:`~repro.sim.missions.Mission` is built.
    """
    ledger = result.ledger
    item_ids = ledger.item_id.tolist()
    starts = [0] + ledger.batch_end.tolist()
    return {
        "planner": result.planner_name,
        "metrics": metrics_to_dict(result.metrics),
        "trace": trace_to_dict(result.trace),
        "missions": [
            {"robot_id": robot, "rack_id": rack,
             "item_ids": item_ids[start:end], "dispatched_at": dispatched}
            for robot, rack, dispatched, start, end in zip(
                ledger.robot, ledger.rack, ledger.dispatched_at,
                starts, ledger.batch_end)],
    }


def metrics_from_dict(payload: Dict[str, Any]) -> RunMetrics:
    """Rebuild :class:`RunMetrics` from :func:`metrics_to_dict` output."""
    return RunMetrics(
        makespan=payload["makespan"],
        items_processed=payload["items_processed"],
        missions_completed=payload["missions_completed"],
        ppr=payload["ppr"],
        rwr=payload["rwr"],
        selection_seconds=payload["selection_seconds"],
        planning_seconds=payload["planning_seconds"],
        peak_memory_bytes=payload["peak_memory_bytes"],
        checkpoints=[CheckpointSample(**c) for c in payload["checkpoints"]],
        fallback={key: payload.get("fallback", {}).get(key, 0)
                  for key in FALLBACK_KEYS},
        fastpath={key: payload.get("fastpath", {}).get(key, 0)
                  for key in FASTPATH_KEYS})


def deterministic_view(payload: Any) -> Any:
    """Copy of ``payload`` with wall-clock keys removed, recursively.

    Two runs of the same (scenario, planner, config) cell — serial or in a
    worker process — produce identical deterministic views; only the
    timing measurements differ.
    """
    if isinstance(payload, dict):
        return {k: deterministic_view(v) for k, v in payload.items()
                if k not in TIMING_KEYS}
    if isinstance(payload, list):
        return [deterministic_view(v) for v in payload]
    return payload

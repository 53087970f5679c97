"""The benchmark's metric registry and how each value is derived.

``END_TO_END`` and ``PER_LAYER`` are the single declaration of every
metric name, unit and direction; ``BENCHMARK.json`` repeats them for the
driver and the smoke test keeps the two in step.  End-to-end values come
from untraced passes only; per-layer values from the one traced pass.
Every time is in work seconds (see ``workclock.py``).
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Dict, List

from .trace import PROOF_PHASE, Totals, Tracer, percentile

#: ``(name, unit, better, bound)`` — ``bound`` is the share of the
#: parent's median by which the metric may worsen before a change counts
#: as a regression.  The bounds are sized to what the recording box shows
#: between runs that each get another arrival seed (see README.md): the
#: seed moves makespan and MC, and on a disturbed box a time's spread
#: reaches 0.13 even in work seconds, so the timings take the largest
#: bound allowed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("mc_peak_mb", "MB", "lower", 0.15),
    ("makespan_ticks", "ticks", "lower", 0.25),
]

#: ``(name, unit, better)``.  A metric whose layer does not run on a
#: workload reads 0 there (``checkpoint.*`` off ``service-eatp``,
#: ``warehouse.knn_build_s`` under NTP, ``harness.*`` off ``table3-x2``).
PER_LAYER = [
    ("workloads.build_s", "s", "lower"),
    ("warehouse.knn_build_s", "s", "lower"),
    ("warehouse.scan_calls", "count", "lower"),
    ("warehouse.scan_s", "s", "lower"),
    ("planners.construct_s", "s", "lower"),
    ("planners.plan_calls", "count", "lower"),
    ("planners.plan_self_s", "s", "lower"),
    ("planners.select_s", "s", "lower"),
    ("planners.advance_s", "s", "lower"),
    ("planners.wake_ms_p50", "ms", "lower"),
    ("planners.wake_ms_p99", "ms", "lower"),
    ("pipeline.plan_leg_calls", "count", "lower"),
    ("pipeline.plan_leg_self_s", "s", "lower"),
    ("pipeline.tier0_s", "s", "lower"),
    ("pipeline.legs_free_flow", "count", "higher"),
    ("pipeline.legs_full", "count", "lower"),
    ("pipeline.legs_windowed", "count", "lower"),
    ("pipeline.legs_wait", "count", "lower"),
    ("pipeline.rescued_legs", "count", "lower"),
    ("pipeline.audit_rejects", "count", "lower"),
    ("pipeline.horizon_replans", "count", "lower"),
    ("pipeline.tier0_hit_ratio", "ratio", "higher"),
    ("st_astar.search_calls", "count", "lower"),
    ("st_astar.search_s", "s", "lower"),
    ("st_astar.expansions", "count", "lower"),
    ("st_astar.expansions_per_s", "1/s", "higher"),
    ("st_astar.leg_ms_p99", "ms", "lower"),
    ("reservation.reserve_calls", "count", "lower"),
    ("reservation.reserve_s", "s", "lower"),
    ("reservation.purge_calls", "count", "lower"),
    ("reservation.purge_s", "s", "lower"),
    ("reservation.audit_calls", "count", "lower"),
    ("reservation.audit_s", "s", "lower"),
    ("reservation.peak_bytes", "bytes", "lower"),
    ("heuristics.field_calls", "count", "lower"),
    ("heuristics.field_s", "s", "lower"),
    ("heuristics.fields_built", "count", "lower"),
    ("engine.construct_s", "s", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.ticks_per_s", "1/s", "higher"),
    ("serialize.s", "s", "lower"),
    ("serialize.bytes", "bytes", "lower"),
    ("harness.overhead_s", "s", "lower"),
    ("harness.store_s", "s", "lower"),
    ("harness.unattributed_s", "s", "lower"),
    ("checkpoint.dump_calls", "count", "lower"),
    ("checkpoint.dump_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.restore_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.span_count", "count", "lower"),
    ("bench.speed_share", "ratio", "higher"),
]

#: Span names whose self time is the benchmark's own glue between layers.
_BENCH_PHASES = ("bench.pass", "bench.setup", "bench.run", "bench.finish")


def end_to_end(passes: List[Dict[str, Any]], setup_samples: List[float],
               peak_rss_mb: float) -> Dict[str, float]:
    """Median-of-passes end-to-end values (exact metrics from pass 0)."""
    first = passes[0]
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "items_per_s": statistics.median(
            p["items_done"] / p["run_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "mc_peak_mb": first["mc_peak_bytes"] / 1e6,
        "makespan_ticks": float(first["makespan_ticks"]),
    }


def per_layer(tracer: Tracer, traced: Dict[str, Any], untraced_run_s: float,
              speed_share: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` value of the ``traced`` pass.

    ``speed_share`` is the share of its full speed the box delivered over
    the run (work seconds ÷ wall seconds).
    """
    totals = traced["totals"]

    def of(name: str) -> Totals:
        return totals.get(name, Totals())

    stats: Dict[str, float] = {}
    events = fields_built = 0
    for sim in tracer.sims:
        events += sim.events_processed
        fields_built += len(sim.planner.heuristics)
        for key, value in dataclasses.asdict(sim.planner.stats).items():
            stats[key] = stats.get(key, 0) + value
    tier0_tried = stats.get("descents_compiled", 0) \
        + stats.get("descents_python", 0)
    plan, search = of("planners.plan"), of("st_astar.search")
    engine_s = of("engine.run").inclusive
    counts = traced["counts"]
    values = {
        "workloads.build_s": of("workloads.build").self_time,
        "warehouse.knn_build_s": of("warehouse.knn_build").inclusive,
        "warehouse.scan_calls": of("warehouse.scan").calls,
        "warehouse.scan_s": of("warehouse.scan").inclusive,
        "planners.construct_s": of("planners.construct").self_time,
        "planners.plan_calls": plan.calls,
        "planners.plan_self_s": plan.self_time + of("planners.leg").self_time,
        "planners.select_s": stats.get("selection_seconds", 0.0),
        "planners.advance_s": of("planners.advance").self_time,
        "planners.wake_ms_p50": 1e3 * percentile(plan.durations, 50),
        "planners.wake_ms_p99": 1e3 * percentile(plan.durations, 99),
        "pipeline.plan_leg_calls": of("pipeline.plan_leg").calls,
        "pipeline.plan_leg_self_s": of("pipeline.plan_leg").self_time,
        "pipeline.tier0_s": of("pipeline.tier0").inclusive,
        "pipeline.legs_free_flow": stats.get("legs_free_flow", 0),
        "pipeline.legs_full": stats.get("legs_full", 0),
        "pipeline.legs_windowed": stats.get("legs_windowed", 0),
        "pipeline.legs_wait": stats.get("legs_wait", 0),
        "pipeline.rescued_legs": stats.get("rescued_legs", 0),
        "pipeline.audit_rejects": stats.get("fastpath_audit_rejects", 0),
        "pipeline.horizon_replans": stats.get("horizon_replans", 0),
        "pipeline.tier0_hit_ratio": (
            stats.get("legs_free_flow", 0) / tier0_tried
            if tier0_tried else 0.0),
        "st_astar.search_calls": search.calls,
        "st_astar.search_s": search.inclusive,
        "st_astar.expansions": stats.get("search_expansions", 0),
        "st_astar.expansions_per_s": (
            stats.get("search_expansions", 0) / search.inclusive
            if search.inclusive else 0.0),
        "st_astar.leg_ms_p99": 1e3 * percentile(search.durations, 99),
        "reservation.reserve_calls": of("reservation.reserve").calls,
        "reservation.reserve_s": of("reservation.reserve").inclusive,
        "reservation.purge_calls": of("reservation.purge").calls,
        "reservation.purge_s": of("reservation.purge").inclusive,
        "reservation.audit_calls": of("reservation.audit").calls,
        "reservation.audit_s": of("reservation.audit").inclusive,
        "reservation.peak_bytes": tracer.reservation_peak,
        "heuristics.field_calls": of("heuristics.field").calls,
        "heuristics.field_s": of("heuristics.field").inclusive,
        "heuristics.fields_built": fields_built,
        "engine.construct_s": of("engine.construct").self_time,
        "engine.run_s": engine_s,
        "engine.self_s": of("engine.run").self_time,
        "engine.events": events,
        "engine.events_per_s": events / engine_s if engine_s else 0.0,
        "engine.ticks_per_s": (traced["makespan_ticks"] / engine_s
                               if engine_s else 0.0),
        "serialize.s": of("serialize").inclusive,
        "serialize.bytes": counts.get("serialize.bytes", 0),
        "harness.overhead_s": (of("harness.matrix").self_time
                               + of("harness.cell").self_time),
        "harness.store_s": of("harness.store").inclusive,
        "harness.unattributed_s": sum(of(name).self_time
                                      for name in _BENCH_PHASES),
        "checkpoint.dump_calls": of("checkpoint.dump").calls,
        "checkpoint.dump_s": of("checkpoint.dump").inclusive,
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0),
        "checkpoint.restore_s": of(PROOF_PHASE).inclusive,
        "trace.overhead_frac": traced["run_s"] / untraced_run_s - 1.0,
        "trace.span_count": traced["spans"][1] - traced["spans"][0],
        "bench.speed_share": speed_share,
    }
    return {name: float(values[name]) for name, __, __ in PER_LAYER}

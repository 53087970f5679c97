#!/usr/bin/env python
"""Record the PR-1 performance trajectory into ``BENCH_PR1.json``.

Measures the packed-integer search core and the tick-bucketed reservation
purge **head-to-head against the frozen seed implementations**
(``repro.pathfinding._legacy``) in one process, so the recorded speedups
cannot be an artefact of machine drift between runs.  Three sections:

* ``st_astar`` — expansions/sec of the spatiotemporal A* micro-kernel
  (the Fig. 11 hot loop), plus Python-level function calls per expansion
  measured with cProfile.
* ``purge`` — latency of the periodic reservation *update* on a CDT
  loaded with dense traffic (the Sec. VI-B operation the bucketing fixes).
* ``table3`` — end-to-end Table III wall-time at a reduced scale, with a
  bit-identity check of every planner's makespan between the two stacks.

Run from the repo root::

    PYTHONPATH=src python scripts/bench_kernels.py [--scale 0.35] [--out BENCH_PR1.json]

Future PRs: re-run before and after touching the pathfinding package and
keep ``st_astar.packed.expansions_per_s`` from regressing.

``--smoke`` is the CI gate: a seconds-fast subset (reduced rounds, no
end-to-end Table III timing) that fails the build when the packed search
core's speedup over the in-process seed implementation falls below
``SMOKE_MIN_SEARCH_SPEEDUP``, when the event engine's replay speedup or
events/s floor regresses, when any of the five planners fails to
drain the 200-robot fleet-ladder rung through the planning
pipeline (the PR-4 completion gate, written to ``BENCH_PR4.json``), or
when the tier-0 fast path's live planning-seconds speedup over the PR-4
chain drops below ``SMOKE_MIN_FASTPATH_SPEEDUP`` on the Fleet-100/200
rungs (the PR-5 gate, written to ``BENCH_PR5.json`` with per-rung hit
rates and a bit-identical-makespan check), or when the paper-true
541×302 floor's 500-robot rung fails to drain end to end under
``SMOKE_BIG_RUNG_CEILING_S`` (the PR-6 gate, written to
``BENCH_PR6.json``).  Comparing against the seed *in the same process*
keeps the relative gates machine-independent — absolute expansions/sec
vary across runners, the relative speedup does not.

``--profile`` cProfiles the live Fleet-200 NTP run, prints the top-20
cumulative hot spots and writes the same table to ``--profile-out``
(default ``BENCH_PROFILE.txt``), so future perf PRs start from data and
leave an artifact.  ``--big-only`` runs just the PR-6 paper-floor big
ladder (500/1000/3000 robots, NTP+EATP) into ``BENCH_PR6.json``.
``--reservations-only`` runs the compiled paper-floor ladder pinned to
the ``BENCH_PR8.json`` makespans into ``BENCH_PR9.json`` (cross-kernel
reserve/purge identity is tier-1, in ``tests/test_reservation_kernel``).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import random
import sys
import time
from pathlib import Path as FsPath

_REPO = FsPath(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))
sys.path.insert(0, str(_REPO / "benchmarks"))

from _bench_common import crossing_traffic, dense_traffic  # noqa: E402
from repro.experiments.soak import (SoakSpec, render_soak, run_soak,  # noqa: E402
                                    smoke_spec, soak_ok)
from repro.pathfinding._kernel import build_and_load  # noqa: E402
from repro.pathfinding._legacy import (LegacyConflictDetectionTable,  # noqa: E402
                                       legacy_find_path,
                                       seed_planner_patches)
from repro.pathfinding.cdt import ConflictDetectionTable  # noqa: E402
from repro.pathfinding.spatiotemporal_graph import (  # noqa: E402
    ShardedSpatiotemporalGraph, SpatiotemporalGraph)
from repro.pathfinding.st_astar import (SearchStats, find_path,  # noqa: E402
                                        search_kernel_name,
                                        set_search_kernel)
from repro.warehouse.grid import Grid  # noqa: E402

GRID = Grid(64, 40)
SEARCH_ENDPOINTS = [((0, 0), (60, 35)), ((63, 0), (2, 38)), ((5, 20), (58, 4))]

#: The python core's recorded speedup over the seed is 2.6-2.8x; CI
#: fails below this floor (margin for noisy shared runners).
SMOKE_MIN_SEARCH_SPEEDUP = 1.5

#: The recorded PR-3 event-engine speedup on the replayed Fleet-200 rung
#: is ~12x at full scale, ~4-6x at the smoke scale; CI fails below this
#: floor (relative to the in-process frozen engine, machine-independent).
SMOKE_MIN_ENGINE_SPEEDUP = 2.0

#: Absolute backstop for the event engine's throughput.  Deliberately an
#: order of magnitude under the measured rate so only a catastrophic
#: regression (or an accidentally quadratic calendar) trips it on a slow
#: shared runner.
SMOKE_MIN_ENGINE_EVENTS_PER_S = 5_000

#: Fleet-ladder rungs of the engine benchmark (robot counts at scale 1).
ENGINE_FLEETS = (10, 50, 100, 200)

#: The paper's evaluation order — the planner axis of the ladder kernel.
LADDER_PLANNERS = ("NTP", "LEF", "ILP", "ATP", "EATP")

#: Fleet-ladder rungs of the planner-layer benchmark (PR 4).
LADDER_FLEETS = (10, 25, 50, 100, 200)

#: Fleet-ladder rungs of the tier-0 fast-path benchmark (PR 5) — the two
#: rungs where planning time dominates end-to-end wall-clock.
FASTPATH_FLEETS = (100, 200)

#: Planners of the fast-path benchmark: the plain-search planner and the
#: cache-finisher planner (the finisher takes a different tier-0 path).
FASTPATH_PLANNERS = ("NTP", "EATP")

#: CI floor for the live planning-seconds (PTC) speedup of the tier-0
#: fast path over the PR-4 chain (free_flow off), measured in-process on
#: the same runner.  Recorded smoke speedups are 2.1-4.0x; the floor
#: keeps margin for noisy shared runners.
SMOKE_MIN_FASTPATH_SPEEDUP = 1.5

#: Rungs of the paper-scale big-ladder kernel (PR 6): the 541×302
#: paper-true floor at the fleet sizes the paper excluded as "too slow
#: to execute".  The tiled ST graph and the wait-following
#: rescue are auto-on here (the floor is far above
#: ``PAPER_SCALE_MIN_CELLS``).
BIG_LADDER_FLEETS = (500, 1000, 3000)

#: Stream length of the full service-mode soak (PR 7): 10× the longest
#: batch horizon on record (the Fleet-10 rung's 21,294-tick makespan in
#: ``BENCH_PR4.json``), proving the always-on loop holds memory flat far
#: past anything the batch experiments exercise.
SOAK_DURATION_TICKS = 220_000

#: Planner axis of the big ladder: the fastest plain-search planner and
#: the paper's headline planner.  (LEF/ILP/ATP stay excluded — their
#: selection layers are the known quadratic wall, which is a different
#: story from the planning-layer scaling this kernel measures.)
BIG_LADDER_PLANNERS = ("NTP", "EATP")

#: CI floor for the native search kernel's expansions/s over the pure-
#: python core (``st_astar._search_heap``), measured in-process on the
#: same workload (the PR-8 gate, written to ``BENCH_PR8.json``).
#: Recorded speedups are 6.5-8x; the 3x floor is the ROADMAP target
#: with margin for noisy shared runners.  The gate only arms when the
#: extension builds — the pure-python CI job (``REPRO_KERNEL_BUILD=0``)
#: skips it by design.
SMOKE_MIN_COMPILED_SPEEDUP = 3.0

#: Rungs of the PR-8 kernel ladder: the paper-floor fleet sizes where a
#: planning-seconds drop from the native kernel must be measurable.
KERNEL_LADDER_FLEETS = (500, 1000, 3000)

#: Wall-clock ceiling of the ``--smoke`` 500-robot paper-floor rung.
#: With the native search *and* reservation-mutation kernels the
#: recorded NTP run drains in ~25 s on the dev machine (it was ~60 s
#: before PR 8, and did not finish in ten minutes before PR 6); the
#: ceiling is tightened to the post-kernel regime while still leaving
#: several-fold headroom for slow shared runners.
SMOKE_BIG_RUNG_CEILING_S = 150.0

#: The three production reservation structures the mutation kernel
#: accelerates (modes 1, 2 and 4 of ``kernel_probe_spec``).
RESERVATION_TABLE_MAKERS = (
    ("cdt", lambda grid: ConflictDetectionTable()),
    ("stgraph", lambda grid: SpatiotemporalGraph(grid)),
    ("sharded_stgraph", lambda grid: ShardedSpatiotemporalGraph()),
)

#: CI floor for the compiled heuristic-field flood (``bfs_fill``) over
#: the python deque flood on the obstructed paper floor (the PR-10
#: gate, written to ``BENCH_PR10.json``).  The recorded speedup is well
#: above the ISSUE's 5x target; the floor *is* the target — the flood
#: is pure C over the prepared adjacency capsule, so it does not sit
#: near the line the way mixed python/C loops do.
SMOKE_MIN_FIELD_SPEEDUP = 5.0

#: CI floor for the fused tier-0 entry point (``tier0_leg``: greedy
#: descent + bulk audit in one call) over the python
#: ``packed()``+``audit_chain`` pair on the same cold legs.
SMOKE_MIN_TIER0_SPEEDUP = 2.0

#: Rungs of the PR-10 live contrast: the fleet-ladder cells where
#: tier-0 legs dominate planning seconds (same rungs as the PR-5 gate).
TIER0_LADDER_FLEETS = (100, 200)


def _time_search(search_fn, make_table, rounds=30):
    """Total seconds and expansions for ``rounds`` sweeps of the endpoints."""
    table = make_table()
    crossing_traffic(table)
    # Warm-up: populates the per-goal field caches so both variants are
    # measured in their steady state (the seed has no cache to warm).
    for source, goal in SEARCH_ENDPOINTS:
        search_fn(GRID, table, source, goal, 0)
    expansions = 0
    started = time.perf_counter()
    for __ in range(rounds):
        for source, goal in SEARCH_ENDPOINTS:
            stats = SearchStats()
            search_fn(GRID, table, source, goal, 0, stats=stats)
            expansions += stats.expansions
    elapsed = time.perf_counter() - started
    return elapsed, expansions


def _calls_per_expansion(search_fn, make_table):
    """Python-level function calls per node expansion, via cProfile."""
    table = make_table()
    crossing_traffic(table)
    source, goal = SEARCH_ENDPOINTS[0]
    search_fn(GRID, table, source, goal, 0)  # warm field caches
    stats = SearchStats()
    profiler = cProfile.Profile()
    profiler.enable()
    search_fn(GRID, table, source, goal, 0, stats=stats)
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    return calls / max(1, stats.expansions)


def bench_st_astar(rounds=30):
    # Pinned to the pure-python core: this section records the *packed
    # rewrite's* gain over the seed.  The native kernel's gain over the
    # python core is bench_search_kernels' number (BENCH_PR8.json).
    previous = search_kernel_name()
    set_search_kernel("python")
    try:
        seed_s, seed_exp = _time_search(legacy_find_path,
                                        LegacyConflictDetectionTable, rounds)
        packed_s, packed_exp = _time_search(find_path,
                                            ConflictDetectionTable, rounds)
    finally:
        set_search_kernel(previous)
    assert seed_exp == packed_exp, (
        f"expansion counts diverged: seed {seed_exp} vs packed {packed_exp}")
    set_search_kernel("python")
    try:
        seed_cpe = _calls_per_expansion(legacy_find_path,
                                        LegacyConflictDetectionTable)
        packed_cpe = _calls_per_expansion(find_path, ConflictDetectionTable)
    finally:
        set_search_kernel(previous)
    return {
        "workload": "3 endpoints x 30 rounds on 64x40 with crossing traffic",
        "expansions": packed_exp,
        "seed": {"seconds": seed_s,
                 "expansions_per_s": seed_exp / seed_s,
                 "calls_per_expansion": seed_cpe},
        "packed": {"seconds": packed_s,
                   "expansions_per_s": packed_exp / packed_s,
                   "calls_per_expansion": packed_cpe},
        "speedup": (packed_exp / packed_s) / (seed_exp / seed_s),
        "calls_per_expansion_ratio": seed_cpe / packed_cpe,
    }


def bench_search_kernels(rounds=30):
    """The PR-8 micro: ``st_astar.packed.expansions_per_s`` per kernel.

    Same workload as :func:`bench_st_astar`, run once under each search
    core selected via :func:`set_search_kernel` — so the recorded
    compiled-vs-python speedup is in-process and machine-independent.
    The expansion counts must agree exactly (the kernel is bit-identical
    by contract; the equivalence suite pins the full outcome).
    """
    compiled_available = build_and_load() is not None
    previous = search_kernel_name()
    results = {}
    try:
        for kernel in (("python", "compiled") if compiled_available
                       else ("python",)):
            set_search_kernel(kernel)
            seconds, expansions = _time_search(find_path,
                                               ConflictDetectionTable,
                                               rounds)
            results[kernel] = {"seconds": seconds,
                               "expansions": expansions,
                               "expansions_per_s": expansions / seconds}
    finally:
        set_search_kernel(previous)
    payload = {
        "workload": f"3 endpoints x {rounds} rounds on 64x40 with "
                    "crossing traffic, per search kernel",
        "compiled_available": compiled_available,
        "python": results["python"],
    }
    if compiled_available:
        assert (results["python"]["expansions"]
                == results["compiled"]["expansions"]), (
            "kernel expansion counts diverged: "
            f"python {results['python']['expansions']} vs "
            f"compiled {results['compiled']['expansions']}")
        payload["compiled"] = results["compiled"]
        payload["compiled_speedup"] = (
            results["compiled"]["expansions_per_s"]
            / results["python"]["expansions_per_s"])
    return payload


def _time_purges(make_table, rounds=12):
    """Mean seconds per periodic purge sweep (cadence-32 floors)."""
    total = 0.0
    n_purges = 0
    for __ in range(rounds):
        table = make_table()
        dense_traffic(table, GRID)
        floors = list(range(32, 833, 32))
        started = time.perf_counter()
        for floor in floors:
            table.purge_before(floor)
        total += time.perf_counter() - started
        n_purges += len(floors)
    return total / n_purges


def bench_purge():
    seed_latency = _time_purges(LegacyConflictDetectionTable)
    bucketed_latency = _time_purges(ConflictDetectionTable)
    return {
        "workload": "400 paths x 30 cells over an 830-tick horizon, "
                    "cadence-32 purge sweep",
        "seed": {"purge_latency_s": seed_latency},
        "bucketed": {"purge_latency_s": bucketed_latency},
        "speedup": seed_latency / bucketed_latency,
    }


def bench_table3(scale):
    from repro.experiments.table3 import run_table3

    started = time.perf_counter()
    packed_table = run_table3(scale=scale)
    packed_s = time.perf_counter() - started

    patches = seed_planner_patches()
    saved = [(target, name, getattr(target, name)) for target, name, __ in patches]
    try:
        for target, name, repl in patches:
            setattr(target, name, repl)
        started = time.perf_counter()
        seed_table = run_table3(scale=scale)
        seed_s = time.perf_counter() - started
    finally:
        for target, name, original in saved:
            setattr(target, name, original)

    identical = packed_table == seed_table
    return {
        "scale": scale,
        "makespans": packed_table,
        "seed_makespans": seed_table,
        "makespans_bit_identical": identical,
        "wall_s": packed_s,
        "seed_wall_s": seed_s,
        "speedup": seed_s / packed_s,
    }


class _RecordingUnusable(Exception):
    """A live recording the frozen per-tick engine cannot replay."""


def _bench_engine_rung(spec, planner_name="NTP"):
    """Record one live run, then replay it through both engines.

    The replay isolates the engine: both generations execute the identical
    mission stream with near-zero planner cost (see
    :mod:`repro.sim.replay`), so the wall-clock ratio is the engine's own
    speedup, not diluted by the spatiotemporal search the two stacks share
    byte-for-byte.

    Recordings that needed the planning pipeline's wait tier are
    rejected (:class:`_RecordingUnusable`): partial legs and horizon
    replans postdate the frozen per-tick engine, which cannot execute
    them — and the kernel exists to compare the two engines on identical
    work, so the next planner in line records instead.
    """
    from repro.planners import PLANNERS
    from repro.sim._legacy_engine import LegacySimulation
    from repro.sim.engine import Simulation
    from repro.sim.replay import RecordingPlanner, ReplayPlanner
    from repro.sim.serialize import deterministic_view, result_to_dict

    state, items = spec.build()
    recorder = RecordingPlanner(PLANNERS[planner_name](state))
    started = time.perf_counter()
    live_result = Simulation(state, recorder, items).run()
    live_wall = time.perf_counter() - started

    fallback_legs = recorder.stats.legs_wait
    if fallback_legs:
        raise _RecordingUnusable(
            f"{planner_name} planned {fallback_legs} fallback leg(s) on "
            f"{spec.name}; the frozen per-tick engine cannot replay "
            f"partial legs")

    def replay(engine_cls):
        replay_state, replay_items = spec.build()
        planner = ReplayPlanner(replay_state, recorder.log)
        simulation = engine_cls(replay_state, planner, replay_items)
        begun = time.perf_counter()
        result = simulation.run()
        return time.perf_counter() - begun, result, simulation

    legacy_s, legacy_result, __ = replay(LegacySimulation)
    event_s, event_result, event_sim = replay(Simulation)
    if (deterministic_view(result_to_dict(legacy_result))
            != deterministic_view(result_to_dict(event_result))):
        raise SystemExit(
            f"engine replay diverged between legacy and event-driven "
            f"stacks on {spec.name}")

    def strip_memory(view):
        # A replay has no reservation structure (memory reads zero) and
        # plans no legs (the tier-0 fast-path counters read zero);
        # everything else must match the live run.
        view["metrics"]["peak_memory_bytes"] = 0
        for checkpoint in view["metrics"]["checkpoints"]:
            checkpoint["memory_bytes"] = 0
        view["metrics"]["fastpath"] = {}
        return view

    if (strip_memory(deterministic_view(result_to_dict(live_result)))
            != strip_memory(deterministic_view(result_to_dict(event_result)))):
        raise SystemExit(
            f"replay diverged from the recorded live run on {spec.name}")

    makespan = legacy_result.metrics.makespan
    events = event_sim.events_processed
    return {
        "scenario": spec.name,
        "planner": planner_name,
        "n_robots": spec.n_robots,
        "makespan_ticks": makespan,
        "events": events,
        "quiet_tick_fraction": 1.0 - events / max(makespan, 1),
        "live_end_to_end_s": live_wall,
        "legacy": {"wall_s": legacy_s, "ticks_per_s": makespan / legacy_s},
        "event": {"wall_s": event_s, "ticks_per_s": makespan / event_s,
                  "events_per_s": events / event_s},
        "speedup": legacy_s / event_s,
        "results_identical": True,
    }


def bench_engine(scale=1.0, fleets=ENGINE_FLEETS,
                 planners=("NTP", "ATP")):
    """The PR-3 engine kernel: fleet-ladder rungs, legacy vs event replay.

    Each rung records with the first planner in ``planners`` whose live
    run stays entirely on the full-search tier — a run that needed the
    planning pipeline's wait legs (NTP's greedy dispatch boxes robots
    in on some mid-congestion rungs) produces partial legs the frozen
    per-tick engine cannot replay, so the rung falls back to the next
    planner and says so in its payload.
    """
    from repro.errors import PathNotFoundError
    from repro.workloads.datasets import fleet_ladder

    specs = fleet_ladder(scale=scale, fleets=fleets, large_fleets=())
    rungs = []
    for spec in specs:
        last_error = None
        for planner_name in planners:
            try:
                rungs.append(_bench_engine_rung(spec, planner_name))
                break
            except (PathNotFoundError, _RecordingUnusable) as error:
                last_error = error
        else:
            rungs.append({"scenario": spec.name, "n_robots": spec.n_robots,
                          "error": str(last_error)})
    return {
        "workload": f"fleet-ladder replay kernel at scale {scale:g}, "
                    f"planners {'/'.join(planners)}",
        "scale": scale,
        "rungs": rungs,
    }


def _ladder_cell(spec, planner_name):
    """One live (rung × planner) run with full planner-layer accounting."""
    from repro.planners import PLANNERS
    from repro.sim.engine import Simulation

    state, items = spec.build()
    planner = PLANNERS[planner_name](state)
    cell = {"scenario": spec.name, "planner": planner_name,
            "n_robots": spec.n_robots}
    started = time.perf_counter()
    try:
        result = Simulation(state, planner, items).run()
    except Exception as error:  # the gate reports, the caller decides
        cell["error"] = f"{type(error).__name__}: {error}"
        cell["wall_s"] = time.perf_counter() - started
        return cell
    stats = planner.stats
    cell.update({
        "wall_s": time.perf_counter() - started,
        "makespan_ticks": result.metrics.makespan,
        "selection_s": stats.selection_seconds,
        "planning_s": stats.planning_seconds,
        "legs": {"planned": stats.legs_planned, "full": stats.legs_full,
                 "wait": stats.legs_wait},
        "horizon_replans": stats.horizon_replans,
        "search_expansions": stats.search_expansions,
    })
    return cell


def bench_fleet_ladder(scale=1.0, fleets=LADDER_FLEETS,
                       planners=LADDER_PLANNERS):
    """The PR-4 planner-layer kernel: every planner up the fleet ladder.

    Runs each (rung × planner) cell *live* — planner and search included,
    unlike the replay-isolated engine kernel — and records per-cell
    selection/planning seconds plus the fallback-tier histogram of the
    planning pipeline.  Before PR 4 this sweep was impossible:
    NTP died on Fleet-50 and EATP on Fleet-200 with
    ``PathNotFoundError``, and LEF/ILP were excluded outright.
    """
    from repro.workloads.datasets import fleet_ladder

    specs = fleet_ladder(scale=scale, fleets=fleets, large_fleets=())
    cells = [_ladder_cell(spec, planner_name)
             for spec in specs for planner_name in planners]
    return {
        "workload": f"fleet-ladder live planner kernel at scale {scale:g}, "
                    f"planners {'/'.join(planners)}",
        "scale": scale,
        "cells": cells,
    }


def _fastpath_cell(spec, planner_name, free_flow):
    """One live rung run with the tier-0 fast path on or off."""
    from repro.config import PlannerConfig
    from repro.planners import PLANNERS
    from repro.sim.engine import Simulation

    state, items = spec.build()
    planner = PLANNERS[planner_name](state,
                                     PlannerConfig(free_flow=free_flow))
    started = time.perf_counter()
    result = Simulation(state, planner, items).run()
    wall = time.perf_counter() - started
    stats = planner.stats
    return {
        "makespan_ticks": result.metrics.makespan,
        "wall_s": wall,
        "planning_s": stats.planning_seconds,
        "selection_s": stats.selection_seconds,
        "legs_planned": stats.legs_planned,
        "legs_free_flow": stats.legs_free_flow,
        "fastpath_audit_rejects": stats.fastpath_audit_rejects,
        "fastpath_misses": stats.fastpath_misses,
        "search_expansions": stats.search_expansions,
    }


def bench_planning_fastpath(scale=1.0, fleets=FASTPATH_FLEETS,
                            planners=FASTPATH_PLANNERS):
    """The PR-5 kernel: live planning seconds with tier 0 off vs. on.

    ``free_flow=False`` is exactly the PR-4 fallback chain (every leg
    pays a full spatiotemporal search); ``free_flow=True`` adds the
    tier-0 free-flow fast path in front of it.  Both runs share the
    python search core, so the recorded speedup isolates the fast
    path itself; the search-core gain over the seed is the ``st_astar``
    section's number.  Makespans must be bit-identical between the two
    configurations — the fast path is provably behaviour-neutral — and
    the per-cell payload records the check.

    The python search kernel is pinned for both configurations: the
    fast path's value is *skipping a search*, so the native kernel
    making searches ~7x cheaper legitimately compresses the measured
    contrast below the PR-5 floor.  Pinning keeps this gate guarding
    the fast-path machinery itself (the kernel's own gate is
    ``bench_search_kernels``).
    """
    from repro.workloads.datasets import fleet_ladder

    specs = fleet_ladder(scale=scale, fleets=fleets, large_fleets=())
    cells = []
    previous = search_kernel_name()
    set_search_kernel("python")
    try:
        for spec in specs:
            for planner_name in planners:
                chain = _fastpath_cell(spec, planner_name, free_flow=False)
                fast = _fastpath_cell(spec, planner_name, free_flow=True)
                attempts = (fast["legs_free_flow"]
                            + fast["fastpath_audit_rejects"]
                            + fast["fastpath_misses"])
                cells.append({
                    "scenario": spec.name,
                    "planner": planner_name,
                    "n_robots": spec.n_robots,
                    "pr4_chain": chain,
                    "fastpath": fast,
                    "planning_speedup":
                        chain["planning_s"] / max(fast["planning_s"], 1e-9),
                    "wall_speedup":
                        chain["wall_s"] / max(fast["wall_s"], 1e-9),
                    "hit_rate":
                        fast["legs_free_flow"] / max(attempts, 1),
                    "makespans_bit_identical":
                        chain["makespan_ticks"] == fast["makespan_ticks"],
                })
    finally:
        set_search_kernel(previous)
    return {
        "workload": f"fleet-ladder live planning kernel at scale "
                    f"{scale:g}, tier-0 fast path off vs on, planners "
                    f"{'/'.join(planners)}",
        "scale": scale,
        "cells": cells,
    }


def report_fastpath(fastpath, out_path):
    """Write the fast-path report and print one line per cell.

    Returns the cells violating a hard invariant or the speedup floor so
    the smoke gate can fail the build on them.
    """
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "planning_fastpath": fastpath,
    }
    FsPath(out_path).write_text(json.dumps(report, indent=2) + "\n")
    failed = []
    for cell in fastpath["cells"]:
        label = f"{cell['scenario']:>10} {cell['planner']:>4}"
        fast = cell["fastpath"]
        print(f"fastpath : {label} plan "
              f"{cell['pr4_chain']['planning_s']:6.2f}s -> "
              f"{fast['planning_s']:6.2f}s "
              f"({cell['planning_speedup']:.2f}x, floor "
              f"{SMOKE_MIN_FASTPATH_SPEEDUP}x) "
              f"hit rate {cell['hit_rate']:.0%} "
              f"({fast['legs_free_flow']}/{fast['legs_planned']} legs, "
              f"{fast['fastpath_audit_rejects']} rejects, "
              f"{fast['fastpath_misses']} misses) "
              f"identical={cell['makespans_bit_identical']}")
        if (not cell["makespans_bit_identical"]
                or cell["planning_speedup"] < SMOKE_MIN_FASTPATH_SPEEDUP):
            failed.append(cell)
    print(f"wrote {out_path}")
    return failed


def run_profile(scale, fleet=200, planner_name="NTP", top=20,
                out_path="BENCH_PROFILE.txt"):
    """cProfile one live fleet-ladder rung; print *and file* the hot spots.

    The starting point for perf work: a cumulative-time top list of the
    live Fleet-200 NTP run (the fleet ladder's most search-bound cell),
    so the next optimisation argues from data instead of guesses.  The
    same top-``top`` table is written to ``out_path`` so CI (or a
    colleague's run) leaves a diffable artifact instead of a scrollback
    buffer.
    """
    import io
    import pstats

    from repro.planners import PLANNERS
    from repro.sim.engine import Simulation
    from repro.workloads.datasets import fleet_ladder

    spec = fleet_ladder(scale=scale, fleets=(fleet,), large_fleets=())[0]
    state, items = spec.build()
    planner = PLANNERS[planner_name](state)
    print(f"profiling the live {spec.name} {planner_name} run at "
          f"scale {scale:g} ...")
    profiler = cProfile.Profile()
    profiler.enable()
    result = Simulation(state, planner, items).run()
    profiler.disable()
    header = (f"live {spec.name} {planner_name} run at scale {scale:g}: "
              f"makespan {result.metrics.makespan:,} ticks, planning "
              f"{planner.stats.planning_seconds:.2f}s, selection "
              f"{planner.stats.selection_seconds:.2f}s; top {top} by "
              f"cumulative time:")
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    table = buffer.getvalue()
    print(header)
    print(table)
    FsPath(out_path).write_text(header + "\n" + table)
    print(f"wrote {out_path}")


def _big_ladder_cell(spec, planner_name):
    """One paper-floor rung run with PR-6 accounting (time + memory)."""
    import resource

    from repro.planners import PLANNERS
    from repro.sim.engine import Simulation

    state, items = spec.build()
    planner = PLANNERS[planner_name](state)
    cell = {"scenario": spec.name, "planner": planner_name,
            "n_robots": spec.n_robots,
            "floor": f"{spec.width}x{spec.height}"}
    started = time.perf_counter()
    try:
        result = Simulation(state, planner, items).run()
    except Exception as error:  # the gate reports, the caller decides
        cell["error"] = f"{type(error).__name__}: {error}"
        cell["wall_s"] = time.perf_counter() - started
        return cell
    stats = planner.stats
    cell.update({
        "wall_s": time.perf_counter() - started,
        "makespan_ticks": result.metrics.makespan,
        "selection_s": stats.selection_seconds,
        "planning_s": stats.planning_seconds,
        "legs": {"planned": stats.legs_planned,
                 "free_flow": stats.legs_free_flow,
                 "full": stats.legs_full, "wait": stats.legs_wait},
        "rescued_legs": stats.rescued_legs,
        "fastpath_audit_rejects": stats.fastpath_audit_rejects,
        "search_expansions": stats.search_expansions,
        "search_kernel": search_kernel_name(),
        "searches": {"compiled": stats.searches_compiled,
                     "python": stats.searches_python},
        "reserves": {"compiled": getattr(stats, "reserves_compiled", 0),
                     "python": getattr(stats, "reserves_python", 0)},
        "purges": {"compiled": getattr(stats, "purges_compiled", 0),
                   "python": getattr(stats, "purges_python", 0)},
        "peak_memory_bytes": result.metrics.peak_memory_bytes,
        # Process-wide high watermark (KB on Linux).  Monotone across
        # cells — only the first cell to reach a level "pays" it — so
        # read it as a per-run ceiling, not a per-cell delta.
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    return cell


def bench_big_ladder(fleets=BIG_LADDER_FLEETS, planners=BIG_LADDER_PLANNERS):
    """The PR-6 kernel: the paper-true 541×302 floor up the big ladder.

    Every cell runs live at scale 1 on the paper's Real-Large floor
    dimensions — the regime the paper excluded as "too slow to execute"
    — with the paper-scale machinery auto-on: the tiled ST graph, the
    wait-following descent rescue, and deep-tie full
    search.  Records
    per-rung planning/selection seconds, the tier histogram, the PR-6
    counters and both memory gauges (the planner-structure metric and
    the process ``ru_maxrss`` high watermark).
    """
    from repro.workloads.datasets import fleet_ladder

    specs = fleet_ladder(scale=1.0, fleets=(), large_fleets=tuple(fleets))
    cells = [_big_ladder_cell(spec, planner_name)
             for spec in specs for planner_name in planners]
    return {
        "workload": "paper-floor (541x302) big-ladder live kernel, "
                    f"planners {'/'.join(planners)}",
        "fleets": list(fleets),
        "cells": cells,
    }


def bench_kernel_ladder(fleets=KERNEL_LADDER_FLEETS, planners=("NTP",)):
    """The PR-8 ladder: paper-floor rungs under each search kernel.

    Each (rung × planner) cell runs live twice — once with the pure-
    python search core pinned, once with the native kernel — so the
    recorded ``planning_speedup`` isolates the kernel itself on the
    exact regime the ROADMAP targets (the 541×302 floor the paper
    excluded).  Makespans must be bit-identical between the two runs:
    the kernel changes how fast searches run, never what they return.
    """
    from repro.workloads.datasets import fleet_ladder

    if build_and_load() is None:
        return {"workload": "paper-floor kernel ladder",
                "compiled_available": False, "cells": []}
    specs = fleet_ladder(scale=1.0, fleets=(), large_fleets=tuple(fleets))
    previous = search_kernel_name()
    cells = []
    try:
        for spec in specs:
            for planner_name in planners:
                cell = {"scenario": spec.name, "planner": planner_name,
                        "n_robots": spec.n_robots}
                for kernel in ("python", "compiled"):
                    set_search_kernel(kernel)
                    cell[kernel] = _big_ladder_cell(spec, planner_name)
                if "error" not in cell["python"] \
                        and "error" not in cell["compiled"]:
                    cell["planning_speedup"] = (
                        cell["python"]["planning_s"]
                        / max(cell["compiled"]["planning_s"], 1e-9))
                    cell["wall_speedup"] = (
                        cell["python"]["wall_s"]
                        / max(cell["compiled"]["wall_s"], 1e-9))
                    cell["makespans_bit_identical"] = (
                        cell["python"]["makespan_ticks"]
                        == cell["compiled"]["makespan_ticks"])
                cells.append(cell)
    finally:
        set_search_kernel(previous)
    return {
        "workload": "paper-floor (541x302) ladder, python vs compiled "
                    f"search kernel, planners {'/'.join(planners)}",
        "compiled_available": True,
        "fleets": list(fleets),
        "cells": cells,
    }


def report_kernels(kernels, out_path):
    """Write the PR-8 report and print one line per section.

    Returns the failing items (expansion-throughput floor, makespan
    divergence, or a rung that errored) so the smoke gate can fail the
    build on them.
    """
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "search_kernels": kernels["search_kernels"],
    }
    if "kernel_ladder" in kernels:
        report["kernel_ladder"] = kernels["kernel_ladder"]
    FsPath(out_path).write_text(json.dumps(report, indent=2) + "\n")
    failed = []
    micro = kernels["search_kernels"]
    if micro["compiled_available"]:
        print(f"kernel   : compiled "
              f"{micro['compiled']['expansions_per_s']:,.0f} exp/s vs "
              f"python {micro['python']['expansions_per_s']:,.0f} exp/s "
              f"— {micro['compiled_speedup']:.2f}x "
              f"(floor {SMOKE_MIN_COMPILED_SPEEDUP}x)")
        if micro["compiled_speedup"] < SMOKE_MIN_COMPILED_SPEEDUP:
            failed.append({"section": "search_kernels",
                           "speedup": micro["compiled_speedup"]})
    else:
        print("kernel   : native kernel unavailable — pure-python core "
              f"at {micro['python']['expansions_per_s']:,.0f} exp/s "
              "(speedup gate skipped)")
    for cell in kernels.get("kernel_ladder", {}).get("cells", []):
        label = f"{cell['scenario']:>10} {cell['planner']:>4}"
        if "planning_speedup" not in cell:
            failed.append(cell)
            error = (cell.get("python", {}).get("error")
                     or cell.get("compiled", {}).get("error"))
            print(f"kernel   : {label} FAILED — {error}")
            continue
        print(f"kernel   : {label} ({cell['n_robots']:>4} robots) plan "
              f"{cell['python']['planning_s']:7.1f}s -> "
              f"{cell['compiled']['planning_s']:7.1f}s "
              f"({cell['planning_speedup']:.2f}x, wall "
              f"{cell['wall_speedup']:.2f}x) "
              f"identical={cell['makespans_bit_identical']}")
        if not cell["makespans_bit_identical"]:
            failed.append(cell)
    print(f"wrote {out_path}")
    return failed


def bench_pr9_ladder(fleets=KERNEL_LADDER_FLEETS, baseline="BENCH_PR8.json"):
    """The PR-9 ladder: compiled paper-floor rungs pinned to PR-8.

    One live NTP run per rung under the full native kernel (search +
    mutations).  Where ``baseline`` (the PR-8 kernel-ladder report) is
    on disk, each rung's makespan is pinned to the recorded compiled
    cell — the mutation kernel changes how fast reservations commit,
    never what the planner decides — and the recorded wall seconds show
    what the compiled mutation loops bought end to end.
    """
    from repro.workloads.datasets import fleet_ladder

    if build_and_load() is None:
        return {"workload": "paper-floor PR-9 ladder",
                "compiled_available": False, "cells": []}
    pins = {}
    baseline_file = FsPath(baseline)
    if baseline_file.exists():
        recorded = json.loads(baseline_file.read_text())
        for cell in recorded.get("kernel_ladder", {}).get("cells", []):
            makespan = cell.get("compiled", {}).get("makespan_ticks")
            if makespan is not None:
                pins[cell["n_robots"]] = makespan
        # The PR-9 report's own ladder records compiled cells directly.
        for cell in recorded.get("pr9_ladder", {}).get("cells", []):
            makespan = cell.get("makespan_ticks")
            if makespan is not None:
                pins[cell["n_robots"]] = makespan
    specs = fleet_ladder(scale=1.0, fleets=(), large_fleets=tuple(fleets))
    previous = search_kernel_name()
    cells = []
    try:
        set_search_kernel("compiled")
        for spec in specs:
            cell = _big_ladder_cell(spec, "NTP")
            pin = pins.get(spec.n_robots)
            if pin is not None and "makespan_ticks" in cell:
                cell["pr8_makespan_ticks"] = pin
                cell["makespan_matches_pr8"] = cell["makespan_ticks"] == pin
            cells.append(cell)
    finally:
        set_search_kernel(previous)
    return {
        "workload": "paper-floor (541x302) ladder under the compiled "
                    "search+mutation kernel, NTP, makespans pinned to "
                    f"{baseline}",
        "compiled_available": True,
        "fleets": list(fleets),
        "cells": cells,
    }


#: Obstructed paper-true floor of the PR-10 field micro: isolated
#: pillars force the *eager* int32-field regime (an unobstructed floor
#: this size serves lazy Manhattan flats, which never flood at all).
def _obstructed_paper_floor():
    blocked = {(x, y) for x in range(10, 531, 7) for y in range(10, 292, 9)}
    return Grid(541, 302, blocked=blocked)


def bench_field_kernels(n_goals=24, seed=20221010):
    """The PR-10 field micro: ``bfs_fill`` vs the python deque flood.

    Floods the same ``n_goals`` random passable goals on the obstructed
    paper-true floor under each field kernel (selection via
    ``set_search_kernel`` — the one switch governs search, mutations,
    fields and descents alike).  The buffers must be bit-identical per
    goal; the recorded speedup is in-process and machine-independent.
    """
    from repro.warehouse.grid import set_field_kernel

    compiled_available = build_and_load() is not None
    grid = _obstructed_paper_floor()
    rng = random.Random(seed)
    passable = [cell for cell in grid.cells()]
    goals = rng.sample(passable, n_goals)
    infinity = grid.n_cells + 1
    results = {}
    buffers = {}
    previous = search_kernel_name()
    try:
        for kernel in (("python", "compiled") if compiled_available
                       else ("python",)):
            set_search_kernel(kernel)
            if kernel == "python":
                set_field_kernel(None)  # belt and braces: pure flood
            started = time.perf_counter()
            flats = [grid.distance_flat(goal, unreached=infinity)
                     for goal in goals]
            seconds = time.perf_counter() - started
            buffers[kernel] = flats
            results[kernel] = {"seconds": seconds,
                               "floods_per_s": n_goals / max(seconds, 1e-9),
                               "cells_per_s": (n_goals * grid.n_cells
                                               / max(seconds, 1e-9))}
    finally:
        set_search_kernel(previous)
    payload = {
        "workload": f"{n_goals} BFS field floods on the obstructed "
                    "541x302 paper floor, python deque vs native bfs_fill",
        "n_cells": grid.n_cells,
        "compiled_available": compiled_available,
        "python": results["python"],
    }
    if compiled_available:
        payload["compiled"] = results["compiled"]
        payload["compiled_speedup"] = (results["python"]["seconds"]
                                       / max(results["compiled"]["seconds"],
                                             1e-9))
        payload["buffers_bit_identical"] = (buffers["python"]
                                            == buffers["compiled"])
    return payload


def bench_tier0_fused(n_legs=400, seed=20221011):
    """The PR-10 descent micro: ``tier0_leg`` vs the python pair.

    Runs the same cold leg tape — ``n_legs`` distinct (source, goal)
    pairs on the 64x40 floor under crossing traffic — through the
    python tier-0 body (greedy ``packed()`` walk + ``audit_chain``) and
    through the fused native entry point, per production table.  Both
    sides pay the full descent+audit on every leg, which is exactly the
    work the fusion collapses into one call.  Outcome equivalence
    (verdict + leg) rides along as a correctness check on the timed tape
    itself.

    Cyclic GC is paused around the timed passes: the loaded tables
    hold enough containers that a single gen-2 collection landing
    inside a milliseconds-long timed pass reads as a several-fold
    outlier on that pass.
    """
    import gc

    from repro.pathfinding.free_flow import (FreeFlowPathCache,
                                             set_descent_kernel)
    from repro.pathfinding.heuristics import HeuristicFieldCache

    compiled_available = build_and_load() is not None
    workload = (f"{n_legs} cold descent+audit legs on 64x40 with crossing "
                "traffic, python packed()+audit_chain vs fused tier0_leg, "
                "all three production tables")
    if not compiled_available:
        return {"workload": workload, "compiled_available": False,
                "tables": {}}
    rng = random.Random(seed)
    passable = list(GRID.cells())
    legs = set()
    while len(legs) < n_legs:
        legs.add(tuple(rng.sample(passable, 2)))
    legs = sorted(legs)
    previous = search_kernel_name()
    tables = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        set_search_kernel("compiled")
        for name, make in RESERVATION_TABLE_MAKERS:
            table = make(GRID)
            crossing_traffic(table)
            heuristics = HeuristicFieldCache(GRID)
            cache = FreeFlowPathCache(GRID, heuristics)
            for goal in {goal for __, goal in legs}:
                heuristics.field(goal)  # warm fields for both sides

            # Python pair: the tier-0 body the pipeline runs without
            # the kernel — walk the chain, then bulk-audit it.
            set_descent_kernel(None)
            python_outcomes = []
            started = time.perf_counter()
            for source, goal in legs:
                chain = cache.packed(source, goal)
                if chain is None:
                    python_outcomes.append((0, None))
                elif table.audit_chain(0, chain, len(chain.cells) - 1):
                    python_outcomes.append((1, list(chain.cells)))
                else:
                    python_outcomes.append((3, None))
            python_s = time.perf_counter() - started

            set_descent_kernel(build_and_load())
            fused_outcomes = []
            started = time.perf_counter()
            for source, goal in legs:
                verdict, path, __, __ = cache.kernel_leg(
                    table, 0, source, goal, lambda goal: (None, 0))
                fused_outcomes.append((verdict, path))
            fused_s = time.perf_counter() - started

            # A served leg comes back as a packed Path; a reject and an
            # unreachable goal carry nothing.
            identical = all(
                pv == fv and cells == (path and path.spatial_cells())
                for (pv, cells), (fv, path)
                in zip(python_outcomes, fused_outcomes))
            tables[name] = {
                "python_s": python_s,
                "fused_s": fused_s,
                "legs_per_s_python": n_legs / max(python_s, 1e-9),
                "legs_per_s_fused": n_legs / max(fused_s, 1e-9),
                "fused_speedup": python_s / max(fused_s, 1e-9),
                "outcomes_identical": identical,
            }
    finally:
        set_search_kernel(previous)
        if gc_was_enabled:
            gc.enable()
    return {"workload": workload, "compiled_available": True,
            "tables": tables}


def _tier0_ladder_cell(spec, planner_name, compiled_tier0):
    """One live rung with the field+descent kernels on or off.

    Both runs keep the compiled search and mutation kernels (the PR-8/9
    planes); only the new PR-10 planes toggle, so the contrast isolates
    what native fields + the fused descent bought on top.
    """
    from repro.pathfinding.free_flow import set_descent_kernel
    from repro.planners import PLANNERS
    from repro.sim.engine import Simulation
    from repro.warehouse.grid import set_field_kernel

    set_search_kernel("compiled")
    if not compiled_tier0:
        set_field_kernel(None)
        set_descent_kernel(None)
    state, items = spec.build()
    planner = PLANNERS[planner_name](state)
    started = time.perf_counter()
    result = Simulation(state, planner, items).run()
    wall = time.perf_counter() - started
    stats = planner.stats
    return {
        "makespan_ticks": result.metrics.makespan,
        "wall_s": wall,
        "planning_s": stats.planning_seconds,
        "selection_s": stats.selection_seconds,
        "legs_planned": stats.legs_planned,
        "legs_free_flow": stats.legs_free_flow,
        "descents": {"compiled": stats.descents_compiled,
                     "python": stats.descents_python},
    }


def bench_tier0_ladder(scale=1.0, fleets=TIER0_LADDER_FLEETS,
                       planners=("NTP", "EATP")):
    """The PR-10 live contrast: fleet-ladder rungs, tier-0 plane toggled.

    Measured in-process — the PR-9 configuration (compiled search +
    mutations, python field/descent bodies) against the full PR-10
    stack — so the recorded planning-seconds improvement is machine-
    independent.  Makespans must be bit-identical: the tier-0 kernels
    change how fast legs plan, never what they decide.
    """
    from repro.workloads.datasets import fleet_ladder

    if build_and_load() is None:
        return {"workload": "fleet-ladder tier-0 kernel contrast",
                "compiled_available": False, "cells": []}
    specs = fleet_ladder(scale=scale, fleets=fleets, large_fleets=())
    previous = search_kernel_name()
    cells = []
    try:
        for spec in specs:
            for planner_name in planners:
                pr9 = _tier0_ladder_cell(spec, planner_name, False)
                pr10 = _tier0_ladder_cell(spec, planner_name, True)
                cells.append({
                    "scenario": spec.name,
                    "planner": planner_name,
                    "n_robots": spec.n_robots,
                    "tier0_python": pr9,
                    "tier0_compiled": pr10,
                    "planning_speedup": (pr9["planning_s"]
                                         / max(pr10["planning_s"], 1e-9)),
                    "wall_speedup": (pr9["wall_s"]
                                     / max(pr10["wall_s"], 1e-9)),
                    "makespans_bit_identical": (pr9["makespan_ticks"]
                                                == pr10["makespan_ticks"]),
                })
    finally:
        set_search_kernel(previous)
    return {
        "workload": f"fleet-ladder live contrast at scale {scale:g}, "
                    "compiled search+mutations throughout, python vs "
                    "compiled field+descent planes, planners "
                    f"{'/'.join(planners)}",
        "compiled_available": True,
        "scale": scale,
        "cells": cells,
    }


def report_fields(fields, out_path):
    """Write the PR-10 report and print one line per section.

    Returns the failing items — a field-flood speedup under
    ``SMOKE_MIN_FIELD_SPEEDUP``, a fused-descent table under
    ``SMOKE_MIN_TIER0_SPEEDUP`` or with diverging outcomes, a ladder
    cell whose makespan moved — so the smoke gate can fail the build.
    """
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    report.update(fields)
    FsPath(out_path).write_text(json.dumps(report, indent=2) + "\n")
    failed = []
    micro = fields["field_kernels"]
    if micro["compiled_available"]:
        print(f"fields   : flood {micro['python']['floods_per_s']:.1f}/s "
              f"python -> {micro['compiled']['floods_per_s']:.1f}/s "
              f"compiled — {micro['compiled_speedup']:.2f}x "
              f"(floor {SMOKE_MIN_FIELD_SPEEDUP}x) "
              f"identical={micro['buffers_bit_identical']}")
        if (micro["compiled_speedup"] < SMOKE_MIN_FIELD_SPEEDUP
                or not micro["buffers_bit_identical"]):
            failed.append({"section": "field_kernels",
                           "speedup": micro["compiled_speedup"],
                           "identical": micro["buffers_bit_identical"]})
    else:
        print("fields   : native kernel unavailable — python flood at "
              f"{micro['python']['floods_per_s']:.1f} floods/s "
              "(speedup gate skipped)")
    for name, entry in fields["tier0_fused"].get("tables", {}).items():
        print(f"fields   : {name:>16} fused descent+audit "
              f"{entry['fused_speedup']:5.2f}x "
              f"({entry['legs_per_s_python']:,.0f} -> "
              f"{entry['legs_per_s_fused']:,.0f} legs/s; floor "
              f"{SMOKE_MIN_TIER0_SPEEDUP}x) "
              f"identical={entry['outcomes_identical']}")
        if (entry["fused_speedup"] < SMOKE_MIN_TIER0_SPEEDUP
                or not entry["outcomes_identical"]):
            failed.append({"section": "tier0_fused", "table": name,
                           "speedup": entry["fused_speedup"],
                           "identical": entry["outcomes_identical"]})
    for cell in fields.get("tier0_ladder", {}).get("cells", []):
        label = f"{cell['scenario']:>10} {cell['planner']:>4}"
        compiled = cell["tier0_compiled"]
        print(f"fields   : {label} plan "
              f"{cell['tier0_python']['planning_s']:6.2f}s -> "
              f"{compiled['planning_s']:6.2f}s "
              f"({cell['planning_speedup']:.2f}x, "
              f"{compiled['descents']['compiled']} compiled descents) "
              f"identical={cell['makespans_bit_identical']}")
        if not cell["makespans_bit_identical"]:
            failed.append(cell)
    print(f"wrote {out_path}")
    return failed


def report_reservations(ladder, out_path):
    """Write the PR-9 ladder report and print one line per rung.

    Returns the failing items — a rung that errored, or a rung whose
    makespan drifted from the PR-8 pin — so the caller can fail the
    build.
    """
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pr9_ladder": ladder,
    }
    FsPath(out_path).write_text(json.dumps(report, indent=2) + "\n")
    failed = []
    for cell in ladder.get("cells", []):
        label = f"{cell['scenario']:>10} {cell['planner']:>4}"
        if "error" in cell:
            failed.append(cell)
            print(f"reserve  : {label} FAILED — {cell['error']}")
            continue
        pinned = cell.get("makespan_matches_pr8")
        pin_note = ("unpinned" if pinned is None
                    else f"matches_pr8={pinned}")
        reserves = cell.get("reserves", {})
        print(f"reserve  : {label} ({cell['n_robots']:>4} robots) wall "
              f"{cell['wall_s']:7.1f}s plan {cell['planning_s']:7.1f}s "
              f"makespan {cell['makespan_ticks']} ({pin_note}, "
              f"{reserves.get('compiled', 0)} compiled commits)")
        if pinned is False:
            failed.append(cell)
    print(f"wrote {out_path}")
    return failed


def report_big_ladder(big, out_path):
    """Write the PR-6 report and print one line per cell.

    Returns the failed cells (error, or over the smoke ceiling when one
    is attached) so the smoke gate can fail the build on them.
    """
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "big_ladder": big,
    }
    FsPath(out_path).write_text(json.dumps(report, indent=2) + "\n")
    failed = []
    ceiling = big.get("ceiling_s")
    for cell in big["cells"]:
        label = f"{cell['scenario']:>10} {cell['planner']:>4}"
        if "error" in cell:
            failed.append(cell)
            print(f"bigladder: {label} FAILED — {cell['error']}")
            continue
        print(f"bigladder: {label} ({cell['n_robots']:>4} robots) "
              f"makespan={cell['makespan_ticks']:>6,} "
              f"wall={cell['wall_s']:7.1f}s "
              f"plan={cell['planning_s']:7.1f}s "
              f"select={cell['selection_s']:5.1f}s "
              f"rescued={cell['rescued_legs']} "
              f"peak={cell['peak_memory_bytes'] / 1e6:.0f}MB "
              f"rss={cell['ru_maxrss_kb'] / 1024:.0f}MB")
        if ceiling is not None and cell["wall_s"] > ceiling:
            failed.append(cell)
            print(f"bigladder: {label} over the {ceiling:.0f}s smoke "
                  "ceiling")
    print(f"wrote {out_path}")
    return failed


def report_ladder(ladder, out_path):
    """Write the ladder report and print one line per cell."""
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "fleet_ladder": ladder,
    }
    FsPath(out_path).write_text(json.dumps(report, indent=2) + "\n")
    failed = []
    for cell in ladder["cells"]:
        label = f"{cell['scenario']:>10} {cell['planner']:>4}"
        if "error" in cell:
            failed.append(cell)
            print(f"ladder   : {label} FAILED — {cell['error']}")
            continue
        print(f"ladder   : {label} makespan={cell['makespan_ticks']:>6,} "
              f"wall={cell['wall_s']:6.2f}s "
              f"select={cell['selection_s']:6.2f}s "
              f"plan={cell['planning_s']:6.2f}s "
              f"wait legs={cell['legs']['wait']} "
              f"(replans {cell['horizon_replans']})")
    print(f"wrote {out_path}")
    return failed


def write_engine_report(engine, out_path):
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "engine": engine,
    }
    FsPath(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def report_engine(engine, out_path):
    """Write the engine report and print one line per rung.

    Rungs that no recording planner could drain carry an ``error`` key
    instead of timings; they are reported, not crashed on.
    """
    write_engine_report(engine, out_path)
    for rung in engine["rungs"]:
        if "error" in rung:
            print(f"engine   : {rung['scenario']:>10} "
                  f"({rung['n_robots']:>3} robots) FAILED to record — "
                  f"{rung['error']}")
            continue
        print(f"engine   : {rung['scenario']:>10} ({rung['n_robots']:>3} "
              f"robots) {rung['legacy']['wall_s']:.3f}s -> "
              f"{rung['event']['wall_s']:.3f}s "
              f"({rung['speedup']:.1f}x, "
              f"{rung['event']['events_per_s']:,.0f} events/s, "
              f"{rung['quiet_tick_fraction']:.0%} quiet ticks)")
    print(f"wrote {out_path}")


def bench_soak(smoke=False):
    """The PR-7 service-mode soak (see :mod:`repro.experiments.soak`).

    Smoke uses the CI-sized spec; the full run streams
    ``SOAK_DURATION_TICKS`` ticks.  Both include the mid-run
    checkpoint→restore→continue bit-identity proof.
    """
    if smoke:
        spec = smoke_spec()
    else:
        spec = SoakSpec(duration=SOAK_DURATION_TICKS, window_ticks=5_000)
    start = time.perf_counter()
    report = run_soak(spec)
    report["wall_s"] = time.perf_counter() - start
    report["smoke"] = smoke
    return report


def report_soak(report, out_path):
    """Write the soak report; returns True when a gate failed."""
    FsPath(out_path).write_text(json.dumps(report, indent=2, sort_keys=True)
                                + "\n")
    print(render_soak(report))
    print(f"wrote {out_path}")
    return not soak_ok(report)


def run_smoke(engine_out="BENCH_PR3.json", ladder_out="BENCH_PR4.json",
              fastpath_out="BENCH_PR5.json", big_out="BENCH_PR6.json",
              soak_out="BENCH_PR7.json", kernel_out="BENCH_PR8.json",
              fields_out="BENCH_PR10.json"):
    """The CI regression gate: quick benchmarks, hard floors.

    Four gates: the PR-1 packed-search speedup over the in-process seed
    (the python core, ``st_astar._search_heap``), the PR-3 event-engine
    speedup over the in-process frozen per-tick engine on a reduced-scale 200-robot fleet-ladder rung (plus
    an absolute ``events_per_s`` backstop), the PR-4 full-fleet-ladder
    completion gate — all five planners must drain the 200-robot rung
    with no ``PathNotFoundError`` escaping the planning pipeline — and
    the PR-5 fast-path gate: live planning seconds on the Fleet-100/200
    rungs must improve by ``SMOKE_MIN_FASTPATH_SPEEDUP`` over the PR-4
    chain run in-process with tier 0 disabled, with bit-identical
    makespans.  The engine, ladder and fast-path numbers are written to
    ``engine_out`` / ``ladder_out`` / ``fastpath_out`` so CI can upload
    them as workflow artifacts.
    """
    st = bench_st_astar(rounds=8)
    print(f"smoke st_astar: {st['packed']['expansions_per_s']:,.0f} exp/s "
          f"(seed {st['seed']['expansions_per_s']:,.0f}) — "
          f"{st['speedup']:.2f}x vs in-process seed "
          f"(floor {SMOKE_MIN_SEARCH_SPEEDUP}x)")
    if st["speedup"] < SMOKE_MIN_SEARCH_SPEEDUP:
        raise SystemExit(
            f"st_astar.packed.expansions_per_s regressed: speedup "
            f"{st['speedup']:.2f}x < {SMOKE_MIN_SEARCH_SPEEDUP}x floor")

    # The PR-8 gate: the native kernel must clear the ROADMAP's 3x
    # expansions/s floor over the pure-python core.  The smoke report
    # carries the micro only; the paper-floor kernel ladder is the full
    # run's (or --kernel-only's) job.
    kernels = {"search_kernels": bench_search_kernels(rounds=8)}
    kernels["search_kernels"]["smoke"] = True
    failed = report_kernels(kernels, kernel_out)
    if failed:
        raise SystemExit(
            f"native-kernel gate failed: compiled speedup below "
            f"{SMOKE_MIN_COMPILED_SPEEDUP}x floor")

    # The PR-10 gate: the native field flood must clear the 5x floor
    # over the python deque flood, the fused tier-0 entry point the 2x
    # floor over the python descent+audit pair, and the live Fleet-200
    # contrast must improve planning seconds with bit-identical
    # makespans.  The paper-floor ladder pin is the full run's (or
    # --fields-only's) job.
    fields = {"field_kernels": bench_field_kernels(n_goals=8),
              "tier0_fused": bench_tier0_fused(n_legs=300),
              "tier0_ladder": bench_tier0_ladder(scale=0.35, fleets=(200,)),
              "smoke": True}
    failed = report_fields(fields, fields_out)
    if failed:
        raise SystemExit(f"tier-0 field/descent kernel gate failed: {failed}")

    engine = bench_engine(scale=0.35, fleets=(200,))
    engine["smoke"] = True
    write_engine_report(engine, engine_out)
    rung = engine["rungs"][0]
    if "error" in rung:
        raise SystemExit(
            f"engine smoke could not record {rung['scenario']}: "
            f"{rung['error']}")
    events_per_s = rung["event"]["events_per_s"]
    print(f"smoke engine  : {events_per_s:,.0f} events/s, "
          f"{rung['speedup']:.2f}x vs in-process frozen engine on "
          f"{rung['scenario']} ({rung['n_robots']} robots) — floors "
          f"{SMOKE_MIN_ENGINE_SPEEDUP}x / "
          f"{SMOKE_MIN_ENGINE_EVENTS_PER_S:,} events/s; wrote {engine_out}")
    if rung["speedup"] < SMOKE_MIN_ENGINE_SPEEDUP:
        raise SystemExit(
            f"engine regressed: replay speedup {rung['speedup']:.2f}x < "
            f"{SMOKE_MIN_ENGINE_SPEEDUP}x floor")
    if events_per_s < SMOKE_MIN_ENGINE_EVENTS_PER_S:
        raise SystemExit(
            f"engine.events_per_s regressed: {events_per_s:,.0f} < "
            f"{SMOKE_MIN_ENGINE_EVENTS_PER_S:,} floor")

    ladder = bench_fleet_ladder(scale=0.35, fleets=(200,))
    ladder["smoke"] = True
    failed = report_ladder(ladder, ladder_out)
    if failed:
        names = [f"{cell['scenario']}/{cell['planner']}" for cell in failed]
        raise SystemExit(
            f"fleet-ladder completion gate failed: {names} did not drain "
            f"the 200-robot rung")

    fastpath = bench_planning_fastpath(scale=0.35)
    fastpath["smoke"] = True
    failed = report_fastpath(fastpath, fastpath_out)
    if failed:
        names = [f"{cell['scenario']}/{cell['planner']}" for cell in failed]
        raise SystemExit(
            f"fast-path gate failed on {names}: planning speedup below "
            f"{SMOKE_MIN_FASTPATH_SPEEDUP}x or makespan diverged from "
            f"the tier-0-off chain")

    # The PR-6 gate: the paper-true 541×302 floor's 500-robot rung must
    # drain end to end under the wall-clock ceiling — the regime the
    # paper excluded, which pre-PR-6 did not finish in ten minutes.
    big = bench_big_ladder(fleets=(500,), planners=("NTP",))
    big["smoke"] = True
    big["ceiling_s"] = SMOKE_BIG_RUNG_CEILING_S
    failed = report_big_ladder(big, big_out)
    if failed:
        names = [f"{cell['scenario']}/{cell['planner']}" for cell in failed]
        raise SystemExit(
            f"paper-floor gate failed: {names} did not drain the "
            f"500-robot rung under {SMOKE_BIG_RUNG_CEILING_S:.0f}s")
    # The PR-7 gate: a bounded service-mode soak must hold the
    # reservation footprint flat and survive a mid-run
    # checkpoint→restore→continue with a bit-identical final view.
    if report_soak(bench_soak(smoke=True), soak_out):
        raise SystemExit(
            "service-mode soak gate failed: reservation memory grew past "
            "the flat envelope or the restored run diverged")
    print("smoke gates passed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.35,
                        help="Table III dataset scale (default 0.35, the "
                             "benchmark harness scale)")
    parser.add_argument("--out", default="BENCH_PR1.json",
                        help="output path (default BENCH_PR1.json)")
    parser.add_argument("--engine-out", default="BENCH_PR3.json",
                        help="output path of the engine kernel report "
                             "(default BENCH_PR3.json)")
    parser.add_argument("--ladder-out", default="BENCH_PR4.json",
                        help="output path of the planner-layer fleet-"
                             "ladder report (default BENCH_PR4.json)")
    parser.add_argument("--fastpath-out", default="BENCH_PR5.json",
                        help="output path of the tier-0 fast-path "
                             "planning kernel report (default "
                             "BENCH_PR5.json)")
    parser.add_argument("--big-out", default="BENCH_PR6.json",
                        help="output path of the paper-floor big-ladder "
                             "report (default BENCH_PR6.json)")
    parser.add_argument("--soak-out", default="BENCH_PR7.json",
                        help="output path of the service-mode soak report "
                             "(default BENCH_PR7.json)")
    parser.add_argument("--kernel-out", default="BENCH_PR8.json",
                        help="output path of the native-kernel report "
                             "(default BENCH_PR8.json)")
    parser.add_argument("--pr9-out", default="BENCH_PR9.json",
                        help="output path of the --reservations-only "
                             "ladder report (default BENCH_PR9.json)")
    parser.add_argument("--fields-out", default="BENCH_PR10.json",
                        help="output path of the tier-0 field/descent "
                             "kernel report (default BENCH_PR10.json)")
    parser.add_argument("--fields-only", action="store_true",
                        help="run only the PR-10 micros (native field "
                             "flood vs python, fused tier-0 descent+audit "
                             "vs the python pair, the live fleet-ladder "
                             "contrast and the paper-floor ladder pinned "
                             "to BENCH_PR9.json) and write BENCH_PR10.json")
    parser.add_argument("--reservations-only", action="store_true",
                        help="run only the compiled paper-floor ladder "
                             "pinned to the BENCH_PR8.json makespans and "
                             "write BENCH_PR9.json")
    parser.add_argument("--kernel-only", action="store_true",
                        help="run only the native-kernel micro plus the "
                             "paper-floor kernel ladder (500/1000/3000 "
                             "robots, python vs compiled) and write "
                             "BENCH_PR8.json")
    parser.add_argument("--kernel-fleets", default=None,
                        help="comma-separated rungs of the --kernel-only "
                             "ladder (default 500,1000,3000)")
    parser.add_argument("--soak-only", action="store_true",
                        help="run only the service-mode soak "
                             f"({SOAK_DURATION_TICKS:,} ticks of stream, "
                             "checkpoint/restore proof) and write "
                             "BENCH_PR7.json")
    parser.add_argument("--big-only", action="store_true",
                        help="run only the paper-floor big ladder "
                             "(541x302, 500/1000/3000 robots, NTP+EATP) "
                             "and write BENCH_PR6.json")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the live Fleet-200 NTP run at "
                             "--engine-scale, print the top-20 "
                             "cumulative hot spots and write them to "
                             "--profile-out, then exit")
    parser.add_argument("--profile-out", default="BENCH_PROFILE.txt",
                        help="file the --profile top list is written to "
                             "(default BENCH_PROFILE.txt)")
    parser.add_argument("--engine-scale", type=float, default=1.0,
                        help="fleet-ladder scale of the full engine "
                             "benchmark (default 1.0, the paper-scale "
                             "floor; --smoke always uses 0.35)")
    parser.add_argument("--ladder-only", action="store_true",
                        help="run only the planner-layer fleet ladder "
                             "and write BENCH_PR4.json")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-fast CI gate: fail if the packed "
                             "search speedup drops below "
                             f"{SMOKE_MIN_SEARCH_SPEEDUP}x or the engine "
                             f"speedup below {SMOKE_MIN_ENGINE_SPEEDUP}x; "
                             "writes only the engine report")
    parser.add_argument("--engine-only", action="store_true",
                        help="run only the engine kernel and write "
                             "BENCH_PR3.json (leaves BENCH_PR1.json "
                             "untouched)")
    args = parser.parse_args(argv)

    if args.profile:
        run_profile(args.engine_scale, out_path=args.profile_out)
        return

    if args.smoke:
        run_smoke(args.engine_out, args.ladder_out, args.fastpath_out,
                  args.big_out, args.soak_out, args.kernel_out,
                  args.fields_out)
        return

    if args.fields_only:
        fields = {"field_kernels": bench_field_kernels(),
                  "tier0_fused": bench_tier0_fused(),
                  "tier0_ladder": bench_tier0_ladder(),
                  "pr10_ladder": bench_pr9_ladder(fleets=(500,),
                                                  baseline="BENCH_PR9.json")}
        failed = report_fields(fields, args.fields_out)
        for cell in fields["pr10_ladder"].get("cells", []):
            pinned = cell.get("makespan_matches_pr8")
            print(f"fields   : {cell['scenario']:>10} paper-floor wall "
                  f"{cell.get('wall_s', 0):7.1f}s plan "
                  f"{cell.get('planning_s', 0):7.1f}s makespan "
                  f"{cell.get('makespan_ticks')} "
                  f"(matches_pr9={pinned})")
            if pinned is False or "error" in cell:
                failed.append(cell)
        if failed:
            raise SystemExit(f"tier-0 field/descent gates failed: {failed}")
        return

    if args.reservations_only:
        fleets = (tuple(int(n) for n in args.kernel_fleets.split(","))
                  if args.kernel_fleets else KERNEL_LADDER_FLEETS)
        failed = report_reservations(bench_pr9_ladder(fleets=fleets),
                                     args.pr9_out)
        if failed:
            raise SystemExit(f"reservation-kernel gates failed: {failed}")
        return

    if args.kernel_only:
        fleets = (tuple(int(n) for n in args.kernel_fleets.split(","))
                  if args.kernel_fleets else KERNEL_LADDER_FLEETS)
        kernels = {"search_kernels": bench_search_kernels(),
                   "kernel_ladder": bench_kernel_ladder(fleets=fleets)}
        failed = report_kernels(kernels, args.kernel_out)
        if failed:
            raise SystemExit(f"native-kernel gates failed: {failed}")
        return

    if args.soak_only:
        if report_soak(bench_soak(), args.soak_out):
            raise SystemExit("service-mode soak gate failed")
        return

    if args.engine_only:
        report_engine(bench_engine(scale=args.engine_scale), args.engine_out)
        return

    if args.ladder_only:
        report_ladder(bench_fleet_ladder(scale=args.engine_scale),
                      args.ladder_out)
        return

    if args.big_only:
        report_big_ladder(bench_big_ladder(), args.big_out)
        return

    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "st_astar": bench_st_astar(),
        "purge": bench_purge(),
        "table3": bench_table3(args.scale),
    }
    FsPath(args.out).write_text(json.dumps(report, indent=2) + "\n")

    report_engine(bench_engine(scale=args.engine_scale), args.engine_out)
    report_ladder(bench_fleet_ladder(scale=args.engine_scale),
                  args.ladder_out)
    report_fastpath(bench_planning_fastpath(scale=args.engine_scale),
                    args.fastpath_out)
    report_big_ladder(bench_big_ladder(), args.big_out)
    kernels = {"search_kernels": bench_search_kernels(),
               "kernel_ladder": bench_kernel_ladder()}
    report_kernels(kernels, args.kernel_out)
    if report_soak(bench_soak(), args.soak_out):
        raise SystemExit("service-mode soak gate failed")

    st, purge, t3 = report["st_astar"], report["purge"], report["table3"]
    print(f"st_astar : {st['packed']['expansions_per_s']:,.0f} exp/s "
          f"(seed {st['seed']['expansions_per_s']:,.0f}) — "
          f"{st['speedup']:.2f}x, "
          f"{st['calls_per_expansion_ratio']:.1f}x fewer calls/expansion")
    print(f"purge    : {purge['bucketed']['purge_latency_s'] * 1e6:,.1f} µs "
          f"(seed {purge['seed']['purge_latency_s'] * 1e6:,.1f} µs) — "
          f"{purge['speedup']:.2f}x")
    print(f"table3   : {t3['wall_s']:.1f}s vs seed {t3['seed_wall_s']:.1f}s "
          f"(scale {t3['scale']}), makespans identical: "
          f"{t3['makespans_bit_identical']}")
    if not t3["makespans_bit_identical"]:
        raise SystemExit("Table III makespans diverged from the seed stack")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

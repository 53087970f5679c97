"""Micro-benchmarks of the hot kernels (repeated-timing, pytest-benchmark).

These isolate the per-call costs the end-to-end figures aggregate:
spatial A*, spatiotemporal A* against both reservation structures, the
cache-aided finisher, conflict probes, reservation purges, heuristic-field
builds, the two selection strategies, and the two PR-5 pieces measured
independently — the bucket queue vs. ``heapq`` on an identical push/pop
stream, and the tier-0 descent vs. the full search on the same leg.

``scripts/bench_kernels.py`` runs the same scenarios (shared via
``_bench_common``) head-to-head against the frozen seed implementations
and records the speedups in ``BENCH_PR1.json``.
"""

import heapq

import pytest
from _bench_common import crossing_traffic, dense_traffic

from repro.config import PlannerConfig
from repro.pathfinding.astar import shortest_path
from repro.pathfinding.cache import ShortestPathCache, make_wait_finisher
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.free_flow import FreeFlowPathCache
from repro.pathfinding.heuristics import HeuristicFieldCache
from repro.pathfinding.spatiotemporal_graph import SpatiotemporalGraph
from repro.pathfinding.st_astar import find_path
from repro.planners import EfficientAdaptiveTaskPlanner, NaiveTaskPlanner
from repro.warehouse.entities import Item
from repro.warehouse.grid import Grid
from repro.warehouse.knn import StaticRackKNN
from repro.warehouse.layout import build_layout
from repro.warehouse.state import WarehouseState

GRID = Grid(64, 40)


def test_spatial_astar(benchmark):
    benchmark(shortest_path, GRID, (0, 0), (63, 39))


def test_st_astar_on_cdt(benchmark):
    table = ConflictDetectionTable()
    crossing_traffic(table)
    benchmark(find_path, GRID, table, (0, 0), (60, 35), 0)


def test_st_astar_on_stgraph(benchmark):
    table = SpatiotemporalGraph(GRID)
    crossing_traffic(table)
    benchmark(find_path, GRID, table, (0, 0), (60, 35), 0)


def test_st_astar_with_cache_finisher(benchmark):
    table = ConflictDetectionTable()
    crossing_traffic(table)
    cache = ShortestPathCache(GRID, threshold=12)
    goal = (60, 35)

    def search():
        finisher = make_wait_finisher(cache, goal, table)
        return find_path(GRID, table, (0, 0), goal, 0,
                         finisher=finisher, finisher_trigger=12)

    benchmark(search)


def test_st_astar_with_heuristic_field(benchmark):
    table = ConflictDetectionTable()
    crossing_traffic(table)
    field = HeuristicFieldCache(GRID).field((60, 35))
    benchmark(find_path, GRID, table, (0, 0), (60, 35), 0, field)


#: Shared push/pop stream for the two open-set kernels: f drifts upward
#: in small steps and never sinks below the pop frontier — the
#: monotone-f pattern a consistent heuristic over unit edge costs forces
#: on the search — with two pushes per pop (branching factor > 1).
_QUEUE_OPS = 30_000


def _queue_stream():
    for i in range(_QUEUE_OPS):
        yield (i >> 4) + (i & 3), i  # (raw f, payload)


def test_open_set_heapq(benchmark):
    """The pre-PR-5 open set: tuple entries through ``heapq``."""

    def run():
        heap = []
        tie = 0
        frontier = 0  # f of the last pop; pushes clamp to it (monotone f)
        drained = 0
        pushes = 0
        for f, payload in _queue_stream():
            if f < frontier:
                f = frontier
            heapq.heappush(heap, (f, tie, payload))
            tie += 1
            pushes += 1
            if pushes & 1:
                entry = heapq.heappop(heap)
                frontier = entry[0]
                drained += entry[2]
        while heap:
            drained += heapq.heappop(heap)[2]
        return drained

    benchmark(run)


def test_open_set_bucket_queue(benchmark):
    """The PR-5 open set: per-f FIFO buckets, bare-int appends."""

    def run():
        buckets = [[]]
        f_off = 0  # the pop frontier; pushes clamp to it (monotone f)
        pos = 0
        open_size = 0
        drained = 0
        pushes = 0
        for f, payload in _queue_stream():
            if f < f_off:
                f = f_off
            while f >= len(buckets):
                buckets.append([])
            buckets[f].append(payload)
            open_size += 1
            pushes += 1
            if pushes & 1:
                bucket = buckets[f_off]
                while pos >= len(bucket):
                    f_off += 1
                    bucket = buckets[f_off]
                    pos = 0
                drained += bucket[pos]
                pos += 1
                open_size -= 1
        while open_size:
            bucket = buckets[f_off]
            while pos >= len(bucket):
                f_off += 1
                bucket = buckets[f_off]
                pos = 0
            drained += bucket[pos]
            pos += 1
            open_size -= 1
        return drained

    benchmark(run)


def test_free_flow_descent_extract(benchmark):
    """Tier-0 path extraction (the python walk): the O(d) piece."""
    cache = FreeFlowPathCache(GRID, HeuristicFieldCache(GRID))
    cache.packed((0, 0), (60, 35))  # warm the heuristic field

    benchmark(cache.packed, (0, 0), (60, 35))


def test_free_flow_kernel_leg(benchmark):
    """One whole tier-0 leg under the active kernel: descent + audit."""
    cache = FreeFlowPathCache(GRID, HeuristicFieldCache(GRID))
    table = ConflictDetectionTable()
    crossing_traffic(table)

    def no_finisher(goal):
        return None, 0

    cache.kernel_leg(table, 0, (0, 0), (60, 35), no_finisher)  # warm

    benchmark(cache.kernel_leg, table, 0, (0, 0), (60, 35), no_finisher)


def test_heuristic_field_build(benchmark):
    cache = HeuristicFieldCache(GRID)

    def build():
        cache._fields.clear()  # force the BFS, not the memo hit
        return cache.field((60, 35))

    benchmark(build)


def test_cdt_purge(benchmark):
    def setup():
        table = ConflictDetectionTable()
        dense_traffic(table, GRID)
        return (table,), {}

    benchmark.pedantic(lambda table: table.purge_before(400),
                       setup=setup, rounds=20)


def test_stgraph_purge(benchmark):
    def setup():
        table = SpatiotemporalGraph(GRID)
        dense_traffic(table, GRID, n_paths=120, horizon=300)
        return (table,), {}

    benchmark.pedantic(lambda table: table.purge_before(150),
                       setup=setup, rounds=20)


def test_cdt_probe(benchmark):
    table = ConflictDetectionTable()
    crossing_traffic(table)
    benchmark(table.move_allowed, 10, (25, 5), (26, 5))


def test_stgraph_probe(benchmark):
    table = SpatiotemporalGraph(GRID)
    crossing_traffic(table)
    benchmark(table.move_allowed, 10, (25, 5), (26, 5))


def test_knn_probe(benchmark):
    layout = build_layout(64, 40, n_racks=200, n_pickers=16)
    index = StaticRackKNN(layout.rack_homes, 64, 40, k=8)
    benchmark(index.nearest, (30, 20))


def _loaded_state(n_loaded=40):
    layout = build_layout(64, 40, n_racks=200, n_pickers=16)
    state = WarehouseState.from_layout(layout, n_robots=20)
    for i in range(n_loaded):
        state.deliver_item(Item(i, i * 5 % 200, 0, 25))
    return state


def test_selection_ntp(benchmark):
    state = _loaded_state()
    planner = NaiveTaskPlanner(state)
    racks = state.selectable_racks()
    robots = state.idle_robots()
    benchmark(planner._select, 0, racks, robots)


def test_selection_eatp_flip(benchmark):
    state = _loaded_state()
    planner = EfficientAdaptiveTaskPlanner(state, PlannerConfig())
    racks = state.selectable_racks()
    robots = state.idle_robots()
    benchmark(planner._select_flipped, racks, robots)

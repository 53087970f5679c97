"""The hot kernels on fixed scenarios, each checked against a plain reference.

One test per kernel the planners spend their time in: spatiotemporal
A* against both reservation structures, the cache-aided finisher, the heuristic field, the tier-0 descent and whole tier-0 leg,
reservation probes and purges, the K-nearest-racks probe and the two
selection strategies.  The workloads are two fixed reservation patterns
on a 64×40 floor: crossing lanes (robots sweeping right along every
other row) and dense traffic (many short lanes over a long horizon).
Every answer is compared with what a brute-force walk over the reserved
steps, the grid geometry or the rack homes says it must be.

The two open-set tests pin the order argument behind the native
kernel's bucket queue: under monotone f, per-f FIFO buckets pop exactly
the sequence a ``heapq`` keyed by ``(f, tie)`` pops.
"""

from __future__ import annotations

import heapq

from repro.config import PlannerConfig
from repro.pathfinding.cache import ShortestPathCache
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.free_flow import FreeFlowPathCache
from repro.pathfinding.heuristics import HeuristicFieldCache
from repro.pathfinding.paths import Path
from repro.pathfinding.spatiotemporal_graph import SpatiotemporalGraph
from repro.pathfinding.st_astar import (SearchRequest, find_path, search,
                                        search_kernel_name, set_search_kernel)
from repro.planners import EfficientAdaptiveTaskPlanner, NaiveTaskPlanner
from repro.types import manhattan
from repro.warehouse.entities import Item
from repro.warehouse.grid import Grid
from repro.warehouse.knn import StaticRackKNN
from repro.warehouse.layout import build_layout
from repro.warehouse.state import WarehouseState
from tests.conftest import python_audit

GRID = Grid(64, 40)
SOURCE, GOAL = (0, 0), (60, 35)


def crossing_paths(n=12):
    """Crossing lane reservations: robot ``i`` sweeps right along a row."""
    return [Path.from_cells([(x, 3 + 2 * i % 30) for x in range(0, 50)],
                            start_time=i * 3)
            for i in range(n)]


def dense_paths(n_paths, horizon):
    """Many live reservations over a long horizon."""
    paths = []
    for i in range(n_paths):
        row = 1 + i % (GRID.height - 2)
        x0 = (7 * i) % (GRID.width - 30)
        paths.append(Path.from_cells([(x, row) for x in range(x0, x0 + 30)],
                                     start_time=(13 * i) % horizon))
    return paths


def reserved(table, paths):
    for path in paths:
        table.reserve_path(path)
    return table


def occupancy(paths):
    """``(vertices, moves)``: every reserved ``(t, cell)`` and every
    ``(t, source, target)`` move departing at ``t``."""
    vertices, moves = set(), set()
    for path in paths:
        steps = path.steps
        for t, x, y in steps:
            vertices.add((t, (x, y)))
        for (t0, x0, y0), (_, x1, y1) in zip(steps, steps[1:]):
            if (x0, y0) != (x1, y1):
                moves.add((t0, (x0, y0), (x1, y1)))
    return vertices, moves


def reference_move_allowed(vertices, moves, t, source, target):
    if (t + 1, target) in vertices:
        return False
    if source == target or (t + 1, source) not in vertices:
        return True
    return (t, target, source) not in moves


def assert_valid_leg(path, table, source=SOURCE, goal=GOAL, start=0):
    steps = path.steps
    assert steps[0] == (start, *source)
    assert path.goal == goal
    for (t0, x0, y0), (t1, x1, y1) in zip(steps, steps[1:]):
        assert t1 == t0 + 1
        assert abs(x1 - x0) + abs(y1 - y0) <= 1
        assert GRID.passable((x1, y1))
    assert path.duration >= manhattan(source, goal)
    assert table.audit_path(path)


# -- search ------------------------------------------------------------------

def test_st_astar_on_cdt():
    paths = crossing_paths()
    table = reserved(ConflictDetectionTable(), paths)
    path = find_path(GRID, table, SOURCE, GOAL, 0)
    assert_valid_leg(path, table)
    vertices, moves = occupancy(paths)
    for (t0, x0, y0), (_, x1, y1) in zip(path.steps, path.steps[1:]):
        assert reference_move_allowed(vertices, moves, t0, (x0, y0),
                                      (x1, y1))


def test_st_astar_on_stgraph():
    paths = crossing_paths()
    table = reserved(SpatiotemporalGraph(GRID), paths)
    path = find_path(GRID, table, SOURCE, GOAL, 0)
    assert_valid_leg(path, table)
    # Probe answers are identical across structures, so is the search.
    cdt = reserved(ConflictDetectionTable(), paths)
    assert path == find_path(GRID, cdt, SOURCE, GOAL, 0)


def test_st_astar_with_cache_finisher():
    table = reserved(ConflictDetectionTable(), crossing_paths())
    field = HeuristicFieldCache(GRID).field(GOAL)
    outcome = search(GRID, table, SearchRequest(SOURCE, GOAL, 0,
                                                finisher_trigger=12),
                     heuristic=field)
    assert_valid_leg(outcome.path, table)
    assert all(0 < field(cell) <= 12 for cell in outcome.finisher_starts)
    cache = ShortestPathCache(12)
    cache.record_starts(GOAL, field, outcome.finisher_starts)
    assert cache.misses >= 1


def test_st_astar_with_heuristic_field():
    table = reserved(ConflictDetectionTable(), crossing_paths())
    field = HeuristicFieldCache(GRID).field(GOAL)
    path = find_path(GRID, table, SOURCE, GOAL, 0, field)
    assert_valid_leg(path, table)
    # Both heuristics are admissible, so both searches are optimal.
    assert path.duration == find_path(GRID, table, SOURCE, GOAL, 0).duration


# -- open set ----------------------------------------------------------------

#: Shared push/pop stream for the two open sets: f drifts upward in small
#: steps and never sinks below the pop frontier — the monotone-f pattern a
#: consistent heuristic over unit edge costs forces on the search — with
#: two pushes per pop (branching factor > 1).
_QUEUE_OPS = 3_000


def _queue_stream():
    for i in range(_QUEUE_OPS):
        yield (i >> 4) + (i & 3), i  # (raw f, payload)


def _heapq_pops():
    heap = []
    frontier = 0  # f of the last pop; pushes clamp to it (monotone f)
    pops = []
    for tie, (f, payload) in enumerate(_queue_stream()):
        heapq.heappush(heap, (max(f, frontier), tie, payload))
        if tie & 1 == 0:
            frontier, _, popped = heapq.heappop(heap)
            pops.append((frontier, popped))
    while heap:
        f, _, popped = heapq.heappop(heap)
        pops.append((f, popped))
    return pops


def _bucket_queue_pops():
    buckets = [[]]
    f_off = 0  # the pop frontier; pushes clamp to it (monotone f)
    pos = 0
    open_size = 0
    pops = []

    def pop():
        nonlocal f_off, pos, open_size
        bucket = buckets[f_off]
        while pos >= len(bucket):
            f_off += 1
            bucket = buckets[f_off]
            pos = 0
        pops.append((f_off, bucket[pos]))
        pos += 1
        open_size -= 1

    for i, (f, payload) in enumerate(_queue_stream()):
        f = max(f, f_off)
        while f >= len(buckets):
            buckets.append([])
        buckets[f].append(payload)
        open_size += 1
        if i & 1 == 0:
            pop()
    while open_size:
        pop()
    return pops


def test_open_set_heapq():
    pops = _heapq_pops()
    assert sorted(payload for _, payload in pops) == list(range(_QUEUE_OPS))
    # Non-decreasing f, FIFO among equal f.
    for (f0, p0), (f1, p1) in zip(pops, pops[1:]):
        assert f0 < f1 or (f0 == f1 and p0 < p1)


def test_open_set_bucket_queue():
    assert _bucket_queue_pops() == _heapq_pops()


# -- tier 0 ------------------------------------------------------------------

def test_free_flow_descent_extract():
    heuristics = HeuristicFieldCache(GRID)
    chain = FreeFlowPathCache(GRID, heuristics).packed(SOURCE, GOAL)
    cells = chain.cells
    assert cells[0] == SOURCE and cells[-1] == GOAL
    assert len(cells) == manhattan(SOURCE, GOAL) + 1
    field = heuristics.field(GOAL)
    assert [field(cell) for cell in cells] == list(
        range(len(cells) - 1, -1, -1))
    height = GRID.height
    assert list(chain.keys) == [GRID.cell_keys[x * height + y]
                                for x, y in cells]


def test_free_flow_kernel_leg():
    table = reserved(ConflictDetectionTable(), crossing_paths())
    cache = FreeFlowPathCache(GRID, HeuristicFieldCache(GRID))

    verdict, path, starts = cache.kernel_leg(table, 0, SOURCE, GOAL)
    assert starts == ()
    chain = cache.packed(SOURCE, GOAL)
    clean = table.audit_path(Path.from_cells(chain.cells, 0))
    assert python_audit(table, 0, chain, len(chain) - 1) == clean
    if clean:
        assert verdict == 1
        assert path.spatial_cells() == list(chain.cells)
    else:
        assert (verdict, path) == (3, None)
    # Both switches answer the same leg.
    previous = search_kernel_name()
    set_search_kernel("python")
    try:
        assert cache.kernel_leg(table, 0, SOURCE, GOAL) == (verdict, path,
                                                            starts)
    finally:
        set_search_kernel(previous)


def test_heuristic_field_build():
    cache = HeuristicFieldCache(GRID)
    field = cache.field(GOAL)
    assert cache.field(GOAL) is field  # memoised
    # Unobstructed floor: the BFS distance is the Manhattan distance.
    assert all(field((x, y)) == manhattan((x, y), GOAL)
               for x in range(GRID.width) for y in range(GRID.height))
    cache._fields.clear()
    rebuilt = cache.field(GOAL)
    assert rebuilt is not field and list(rebuilt.flat) == list(field.flat)


# -- reservation tables ------------------------------------------------------

def test_cdt_purge():
    paths = dense_paths(400, 800)
    table = reserved(ConflictDetectionTable(), paths)
    table.purge_before(400)
    vertices, _ = occupancy(paths)
    live = {(t, cell) for t, cell in vertices if t >= 400}
    counts = table.live_counts()
    assert counts["reservations"] == len(live)
    assert counts["ticks_live"] == len({t for t, _ in live})
    assert table.recount() == table.live_counts()
    assert all(not table.is_free(t, cell) for t, cell in live)
    assert all(table.is_free(t, cell) for t, cell in vertices if t < 400)


def test_stgraph_purge():
    paths = dense_paths(120, 300)
    table = reserved(SpatiotemporalGraph(GRID), paths)
    table.purge_before(150)
    vertices, _ = occupancy(paths)
    live = {(t, cell) for t, cell in vertices if t >= 150}
    assert table.live_counts()["layers"] == len({t for t, _ in live})
    assert table.recount() == table.live_counts()
    assert all(not table.is_free(t, cell) for t, cell in live)


def _probes():
    for t in range(0, 45):
        for x in range(0, 50, 3):
            for y in (4, 5, 6):
                source = (x, y)
                for target in ((x, y), (x + 1, y), (x - 1, y), (x, y + 1),
                               (x, y - 1)):
                    if GRID.passable(target):
                        yield t, source, target


def _check_probes(table):
    paths = crossing_paths()
    reserved(table, paths)
    vertices, moves = occupancy(paths)
    answers = [table.move_allowed(*probe) for probe in _probes()]
    assert answers == [reference_move_allowed(vertices, moves, *probe)
                       for probe in _probes()]
    assert True in answers and False in answers
    assert table.move_allowed(10, (25, 5), (26, 5))
    assert not table.move_allowed(10, (8, 4), (8, 5))   # vertex taken
    assert not table.move_allowed(10, (8, 5), (7, 5))   # swap


def test_cdt_probe():
    _check_probes(ConflictDetectionTable())


def test_stgraph_probe():
    _check_probes(SpatiotemporalGraph(GRID))


# -- selection ---------------------------------------------------------------

def test_knn_probe():
    layout = build_layout(64, 40, n_racks=200, n_pickers=16)
    index = StaticRackKNN(layout.rack_homes, 64, 40, k=8)
    cell = (30, 20)
    expected = sorted(range(len(layout.rack_homes)),
                      key=lambda r: (manhattan(layout.rack_homes[r], cell),
                                     r))[:8]
    assert index.nearest(cell) == expected


def _loaded_state(n_loaded=40):
    layout = build_layout(64, 40, n_racks=200, n_pickers=16)
    state = WarehouseState.from_layout(layout, n_robots=20)
    for i in range(n_loaded):
        state.deliver_item(Item(i, i * 5 % 200, 0, 25))
    return state


def _assert_entries_unique(entries, racks, robots):
    assert 0 < len(entries) <= min(len(racks), len(robots))
    rack_ids = [entry.rack.rack_id for entry in entries]
    assert len(set(rack_ids)) == len(rack_ids)
    selectable = {rack.rack_id for rack in racks}
    assert set(rack_ids) <= selectable


def test_selection_ntp():
    state = _loaded_state()
    planner = NaiveTaskPlanner(state)
    racks = state.selectable_racks()
    robots = state.idle_robots()
    entries = planner._select(0, racks, robots)
    _assert_entries_unique(entries, racks, robots)


def test_selection_eatp_flip():
    state = _loaded_state()
    planner = EfficientAdaptiveTaskPlanner(state, PlannerConfig())
    racks = state.selectable_racks()
    robots = state.idle_robots()
    entries = planner._select_flipped(racks, robots)
    _assert_entries_unique(entries, racks, robots)
    robot_ids = [entry.robot.robot_id for entry in entries]
    assert len(set(robot_ids)) == len(robot_ids)
    for entry in entries:
        # Flip requesting: each robot claims one of its own K nearest racks.
        assert entry.rack.rack_id in planner.knn.nearest(entry.robot.location)

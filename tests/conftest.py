"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import gc
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden traces under tests/golden/ from the "
             "current implementation instead of diffing against them")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: multi-second experiment regenerator runs")


@pytest.fixture
def update_golden(request) -> bool:
    """Whether this run should regenerate the golden files."""
    return bool(request.config.getoption("--update-golden"))

from repro.config import PlannerConfig, QLearningConfig, SimulationConfig
from repro.pathfinding.paths import Path
from repro.types import pack_cell
from repro.warehouse.grid import Grid
from repro.warehouse.layout import build_layout
from repro.warehouse.state import WarehouseState
from repro.workloads.arrivals import deterministic_arrivals
from repro.workloads.datasets import make_mini


@pytest.fixture
def small_grid() -> Grid:
    """A 10×8 open grid."""
    return Grid(10, 8)


@pytest.fixture
def blocked_grid() -> Grid:
    """A 10×8 grid with a vertical wall leaving one gap at y=6."""
    wall = [(5, y) for y in range(0, 6)]
    return Grid(10, 8, blocked=wall)


@pytest.fixture
def small_layout():
    """A compact layout: 16×12, 8 racks, 2 pickers."""
    return build_layout(16, 12, n_racks=8, n_pickers=2)


@pytest.fixture
def small_state(small_layout) -> WarehouseState:
    """A world over ``small_layout`` with 2 robots."""
    return WarehouseState.from_layout(small_layout, n_robots=2)


@pytest.fixture
def mini_scenario():
    """The seconds-fast smoke scenario."""
    return make_mini(n_items=40)


@pytest.fixture
def fast_sim_config() -> SimulationConfig:
    """A simulation config with a tight tick budget for unit tests."""
    return SimulationConfig(max_ticks=50_000)


@pytest.fixture
def quiet_learner_config() -> PlannerConfig:
    """Adaptive planner config with exploration turned down (determinism)."""
    return PlannerConfig(qlearning=QLearningConfig(delta=0.05, epsilon=0.02))


def make_two_picker_state(n_racks: int = 6, n_robots: int = 2) -> WarehouseState:
    """Helper used by planner tests: a small, fully deterministic world."""
    layout = build_layout(16, 12, n_racks=n_racks, n_pickers=2)
    return WarehouseState.from_layout(layout, n_robots=n_robots)


def eatp_finisher(grid: Grid, table, goal, threshold: int):
    """EATP's Sec. VI-B finisher toward ``goal`` over ``table``, without a
    planner around it: ``(finisher, cache)``.  ``finisher(cell, t)`` is
    the walk from a cell inside the trigger band, through tier 0's entry
    (whose head is then the cell itself), recorded in ``cache`` as the
    chain records it: the walked ``Path`` onto the goal, or ``None``."""
    from repro.pathfinding.cache import ShortestPathCache
    from repro.pathfinding.free_flow import FreeFlowPathCache
    from repro.pathfinding.heuristics import HeuristicFieldCache

    heuristics = HeuristicFieldCache(grid)
    free_flow = FreeFlowPathCache(grid, heuristics)
    cache = ShortestPathCache(threshold)

    def finisher(cell, t):
        field = heuristics.field(goal)
        assert 0 < field(cell) <= threshold
        verdict, path, starts = free_flow.kernel_leg(table, t, cell, goal,
                                                     threshold)
        assert verdict == 2 and starts == (cell,)
        cache.record_starts(goal, field, starts)
        return path

    return finisher, cache


def drip_items(rack_ids, start: int = 0, spacing: int = 1,
               processing: int = 5):
    """Items arriving one per ``spacing`` ticks across ``rack_ids``."""
    schedule = [(start + i * spacing, rack_id)
                for i, rack_id in enumerate(rack_ids)]
    return deterministic_arrivals(schedule, processing_time=processing)


def assert_rows_match_neighbours(grid: Grid) -> None:
    """The adjacency contract: row ``ci`` is ``neighbours(cell)``, packed."""
    for ci in range(grid.n_cells):
        cell = grid.index_cell(ci)
        assert grid.cell_keys[ci] == pack_cell(cell)
        expected = () if not grid.passable(cell) else tuple(
            (grid.cell_index(n), pack_cell(n)) for n in grid.neighbours(cell))
        assert grid.adjacency[ci] == expected


def assert_retains_nothing(call, watched=(), calls=10_000) -> None:
    """``calls`` runs of a native entry point leave the heap and the
    reference counts of the objects it was handed where one warm run
    left them (a leaked 400-step buffer a call would be 32 MB here)."""
    call()
    counts = [sys.getrefcount(obj) for obj in watched]
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for __ in range(calls):
            call()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 4 << 10
    assert [sys.getrefcount(obj) for obj in watched] == counts


@contextmanager
def count_kernel_calls(module, names):
    """Count the calls each native entry point in ``names`` takes inside
    the block.  The spy sits on the loaded module itself, so it sees
    every plane that calls it, however the plane holds the module.  With
    no module loaded nothing native is reachable and every count stays
    zero."""
    calls = Counter()
    entries = ({} if module is None
               else {name: getattr(module, name) for name in names})

    def spy(name, entry):
        def counted(*args):
            calls[name] += 1
            return entry(*args)
        return counted

    for name, entry in entries.items():
        setattr(module, name, spy(name, entry))
    try:
        yield calls
    finally:
        for name, entry in entries.items():
            setattr(module, name, entry)


def python_audit(table, t, chain, limit) -> bool:
    """``table.audit_chain(t, chain, limit)`` under the python switch.

    The python tier-0 audit reads the table's buckets, which only the
    python switch's layout holds; the table converts on the way in and
    back out, and the caller's switch is restored.
    """
    from repro.pathfinding.st_astar import (search_kernel_name,
                                            set_search_kernel)
    previous = search_kernel_name()
    set_search_kernel("python")
    try:
        return table.audit_chain(t, chain, limit)
    finally:
        set_search_kernel(previous)


def assert_edges_have_arrivals(table) -> None:
    """The contract swap gating rests on: a stored edge ``a -> b``
    departing ``t`` has its arrival vertex ``(t + 1, b)`` stored, so a
    move out of a cell nobody arrives on is never a swap.  The edges are
    read from the table's python layout, exported if it holds a store."""
    for t, bucket in table.__getstate__()["_edge_buckets"].items():
        for key in bucket:
            assert not table.is_free_packed(t + 1, key & 0xFFFFFFFF), (
                f"edge {key >> 32:#x} -> {key & 0xFFFFFFFF:#x} departing {t} "
                "has no arrival vertex")


#: Legs on the open 7x3 floor whose moves leave a cell someone arrives on
#: — where the swap probe is asked at all.  ``traffic`` is reserved
#: *after* ``purge_before(floor)``; ``tier0`` is the verdict of the row's
#: free-flow descent with the rescue off and on.
SWAP_CASES = {
    # partner walks the row the other way: (2,1)->(3,1) departing 2 swaps
    "head-on": dict(
        traffic=[([(5, 1), (4, 1), (3, 1), (2, 1), (1, 1), (0, 1)], 0)],
        source=(0, 1), start=0, floor=0, at=(2, (2, 1), (3, 1)),
        swap=True, tier0=(3, 3)),
    # partner steps onto (2,1) at 3 from the side: wait refused, no swap
    "third-cell": dict(
        traffic=[([(2, 0), (2, 0), (2, 0), (2, 1), (2, 2)], 0)],
        source=(0, 1), start=0, floor=0, at=(2, (2, 1), (3, 1)),
        swap=False, tier0=(1, 1)),
    # partner follows one cell behind: every wait refused, never a swap
    "follower": dict(
        traffic=[([(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)], 0)],
        source=(1, 1), start=0, floor=0, at=(0, (1, 1), (2, 1)),
        swap=False, tier0=(1, 1)),
    # head-on again, the edge on the purge floor and its arrival vertex
    # one tick above; the leg straddles the floor when it is reserved
    "after-floor": dict(
        traffic=[([(6, 1), (5, 1), (4, 1), (3, 1), (2, 1), (1, 1)], 4)],
        source=(2, 1), start=7, floor=7, at=(7, (2, 1), (3, 1)),
        swap=True, tier0=(3, 3)),
    # held up one tick by a camper, then out of a cell being stepped onto
    "queue-then-cross": dict(
        traffic=[([(1, 1)], 1), ([(2, 0), (2, 0), (2, 1), (2, 2)], 2)],
        source=(0, 1), start=0, floor=0, at=(3, (2, 1), (3, 1)),
        swap=False, tier0=(3, 4)),
}
SWAP_GOAL = (6, 1)


def load_swap_case(case, table):
    """Apply a :data:`SWAP_CASES` row to ``table`` and check it sets up
    what it says: the departure cell taken at the arrival tick, the
    arrival cell free, the swap present or not."""
    table.purge_before(case["floor"])
    for cells, start in case["traffic"]:
        table.reserve_path(Path.from_cells(cells, start_time=start))
    t, a, b = case["at"]
    assert not table.is_free(t + 1, a) and table.is_free(t + 1, b)
    assert table.edge_free(t, a, b) != case["swap"]
    assert table.move_allowed(t, a, b) != case["swap"]
    return table

"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import gc
import sys
import tracemalloc

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

"""Derived state is updated where it can change, and nowhere else.

Two kinds of derived state are kept at the few points where they can
move, not by watching every write:

* the world's idle / selectable indexes, which only the three
  transitions of :class:`~repro.warehouse.state.WarehouseState` change;
* the planner's MC high-water mark, which is read only before a purge —
  the one operation that shrinks a charged structure;
* the engine's picker calendar, which a wake walks instead of every
  picker: each picker with a running batch must be on it.

These tests read both the expensive way (a rescan after every event, a
memory read after every commit and wake) and require the kept values to
agree.
"""

from __future__ import annotations

import pytest

from repro.config import PAPER_SCALE_MIN_CELLS
from repro.pathfinding._kernel import build_and_load
from repro.planners import PLANNERS
from repro.sim.engine import Simulation
from repro.workloads.datasets import make_mini
from repro.workloads.scenario import ItemStreamSpec, ScenarioSpec
from tests.conftest import kernel_switch

KERNELS = ["python", pytest.param(
    "compiled", marks=pytest.mark.skipif(build_and_load() is None,
                                         reason="native kernel unavailable"))]


def paper_scale_floor() -> ScenarioSpec:
    """A small floor just past the paper-scale gate: the tiled ST graph
    and the rescue serve it."""
    n_racks = 48
    return ScenarioSpec(
        name="Gate", width=128, height=128, n_racks=n_racks, n_pickers=2,
        n_robots=16,
        items=ItemStreamSpec.of(
            "poisson", n_items=80, n_racks=n_racks, rate=1.0, seed=3,
            processing_low=5, processing_high=12))


SCENARIOS = {"mini": make_mini, "paper-scale": paper_scale_floor}


def _run_reading_memory(planner_name, spec):
    """Run ``spec`` and read ``memory_bytes()`` after every commit and wake;
    return the planner, the result and the reads (opening footprint first)."""
    state, items = spec.build()
    planner = PLANNERS[planner_name](state)
    reads = [planner.memory_bytes()]

    def reading(call):
        def wrapped(*args):
            out = call(*args)
            reads.append(planner.memory_bytes())
            return out
        return wrapped

    planner._commit_leg = reading(planner._commit_leg)
    planner.plan = reading(planner.plan)
    return planner, Simulation(state, planner, items).run(), reads


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("planner_name", sorted(PLANNERS))
def test_peak_is_the_largest_read_after_every_commit_and_wake(
        planner_name, scenario):
    spec = SCENARIOS[scenario]()
    planner, result, reads = _run_reading_memory(planner_name, spec)
    if scenario == "paper-scale":
        assert spec.width * spec.height >= PAPER_SCALE_MIN_CELLS
        assert planner.stats.rescued_legs > 0
    # The run purged memory below its peak, so a peak that skipped the
    # pre-purge read would show here.
    assert planner.memory_bytes() < max(reads)
    assert planner.peak_memory_bytes == max(reads)
    assert result.metrics.peak_memory_bytes == max(reads)


@pytest.mark.parametrize("planner_name", sorted(PLANNERS))
def test_invariants_hold_after_every_event(planner_name):
    state, items = make_mini(n_items=42).build()
    sim = Simulation(state, PLANNERS[planner_name](state), items)
    events = 0
    while sim._advance_once():
        state.check_invariants()
        events += 1
    assert events > 0
    sim.result()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("planner_name", sorted(PLANNERS))
def test_every_busy_picker_is_on_the_calendar_at_every_wake(planner_name,
                                                            kernel):
    # A wake syncs only the pickers in ``_picker_events``; a busy picker
    # missing from it would keep stale counters into the selection.
    with kernel_switch(kernel):
        state, items = make_mini().build()
        sim = Simulation(state, PLANNERS[planner_name](state), items)
        sync, busy_at_wakes = sim._sync_world, []

        def checked_sync(t):
            on_calendar = {pid for __, pid in sim._picker_events}
            busy = {picker.picker_id for picker in state.pickers
                    if picker.current_rack is not None}
            assert busy <= on_calendar, (t, busy - on_calendar)
            busy_at_wakes.append(len(busy))
            sync(t)

        sim._sync_world = checked_sync
        sim.run()
    assert max(busy_at_wakes) > 0

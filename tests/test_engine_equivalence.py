"""Legacy (per-tick) vs event-driven engine equivalence.

The event-calendar refactor must be a pure wall-clock change: for every
planner, the frozen per-tick engine (``sim/_legacy_engine.py``) and the
event-driven engine (``sim/engine.py``) must produce identical makespans,
metrics, mission orders, bottleneck traces, and planned legs from the
same scenario — bit for bit, modulo wall-clock timing fields.  This
mirrors the ``pathfinding/_legacy.py`` equivalence suite of the packed
search core.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.planners import PLANNERS
from repro.sim._legacy_engine import LegacySimulation
from repro.sim.engine import Simulation
from repro.sim.serialize import deterministic_view, result_to_dict
from repro.warehouse.entities import Item
from repro.warehouse.layout import build_layout
from repro.warehouse.state import WarehouseState
from repro.workloads.datasets import make_mini, scenario_family

#: Extra mini workload draws beyond the registered family instance, so the
#: sweep exercises different batching/queueing interleavings.
MINI_SEEDS = (20220513, 7)


def run_engine(engine_cls, scenario, planner_name):
    state, items = scenario.build()
    planner = PLANNERS[planner_name](state)
    plan = planner.plan

    def checked_plan(t):
        # Every wake of either engine: the incremental idle / selectable
        # indices the planner is about to read must equal a rescan.
        state.check_invariants()
        return plan(t)

    planner.plan = checked_plan
    config = SimulationConfig(record_bottleneck_trace=True,
                              collect_paths=True)
    result = engine_cls(state, planner, items, config).run()
    state.check_invariants()
    return result, state


def mini_scenarios():
    scenarios = list(scenario_family("mini", scale=1.0))
    scenarios += [make_mini(seed=seed, n_items=42) for seed in MINI_SEEDS]
    return scenarios


@pytest.mark.parametrize("planner_name", sorted(PLANNERS))
def test_engines_identical_over_mini_family(planner_name):
    for scenario in mini_scenarios():
        legacy_result, legacy_state = run_engine(
            LegacySimulation, scenario, planner_name)
        event_result, event_state = run_engine(
            Simulation, scenario, planner_name)

        # Named assertions first, for readable failures.
        assert (event_result.metrics.makespan
                == legacy_result.metrics.makespan), scenario.name
        assert ([(m.robot_id, m.rack_id, m.dispatched_at)
                 for m in event_result.missions]
                == [(m.robot_id, m.rack_id, m.dispatched_at)
                    for m in legacy_result.missions]), scenario.name
        # Every field: the event engine's missions are rebuilt from its
        # packed ledger, the oracle's are the objects it retired.
        assert event_result.missions == legacy_result.missions, scenario.name
        assert (event_result.trace.samples
                == legacy_result.trace.samples), scenario.name
        # Then the full serialised payload, field by field.
        assert (deterministic_view(result_to_dict(event_result))
                == deterministic_view(result_to_dict(legacy_result))), \
            scenario.name
        # Every planned leg, in planning order, with its owner.
        assert ([p.steps for p in event_result.paths]
                == [p.steps for p in legacy_result.paths]), scenario.name
        assert (event_result.path_owners
                == legacy_result.path_owners), scenario.name
        # The worlds the two engines leave behind agree too.
        assert ([(r.location, r.state, r.busy_ticks)
                 for r in event_state.robots]
                == [(r.location, r.state, r.busy_ticks)
                    for r in legacy_state.robots]), scenario.name
        assert ([(p.busy_ticks, p.accumulated_processing,
                  p.queued_processing) for p in event_state.pickers]
                == [(p.busy_ticks, p.accumulated_processing,
                     p.queued_processing)
                    for p in legacy_state.pickers]), scenario.name
        assert ([(r.phase, r.last_return, r.accumulated_processing)
                 for r in event_state.racks]
                == [(r.phase, r.last_return, r.accumulated_processing)
                    for r in legacy_state.racks]), scenario.name


@pytest.mark.parametrize("planner_name", ["NTP", "EATP"])
def test_engines_identical_on_saturated_picker(planner_name):
    """Deep FCFS backlogs (the queueing-heavy regime) replay identically."""
    def build():
        layout = build_layout(16, 12, n_racks=6, n_pickers=2)
        state = WarehouseState.from_layout(layout, n_robots=3,
                                           rack_to_picker=[0] * 6)
        items = [Item(i, i % 6, arrival=0, processing_time=30)
                 for i in range(18)]
        return state, items

    views = []
    for engine_cls in (LegacySimulation, Simulation):
        state, items = build()
        planner = PLANNERS[planner_name](state)
        config = SimulationConfig(record_bottleneck_trace=True)
        result = engine_cls(state, planner, items, config).run()
        views.append(deterministic_view(result_to_dict(result)))
    assert views[0] == views[1]


def test_engines_agree_on_max_ticks_guard():
    """Both engines flag a run that cannot drain, at the same boundary."""
    def build():
        layout = build_layout(16, 12, n_racks=6, n_pickers=2)
        state = WarehouseState.from_layout(layout, n_robots=1)
        items = [Item(0, 5, arrival=0, processing_time=1000)]
        return state, items

    config = SimulationConfig(max_ticks=50)
    for engine_cls in (LegacySimulation, Simulation):
        state, items = build()
        planner = PLANNERS["NTP"](state)
        with pytest.raises(SimulationError, match="max_ticks=50"):
            engine_cls(state, planner, items, config).run()


def test_event_engine_processes_fewer_ticks():
    """The calendar must actually skip quiet spans, not just match."""
    scenario = make_mini(seed=3, n_items=30)
    state, items = scenario.build()
    planner = PLANNERS["NTP"](state)
    simulation = Simulation(state, planner, items)
    result = simulation.run()
    assert simulation.events_processed < result.metrics.makespan

"""Contract tests shared by all five planners.

Whatever the selection strategy, every planner must satisfy the TPRW
output contract: schemes bounded by the idle-robot count, no duplicate
robots/racks, paths that start where robots stand, and reservation
bookkeeping that keeps successive schemes mutually conflict-free.
"""

import pytest

from repro.pathfinding.conflicts import find_conflicts
from repro.planners import PLANNERS
from repro.warehouse.entities import Item

from tests.conftest import make_two_picker_state

ALL_PLANNERS = sorted(PLANNERS)


def loaded_state(n_racks=6, n_robots=3, n_loaded=5):
    state = make_two_picker_state(n_racks=n_racks, n_robots=n_robots)
    for i in range(n_loaded):
        # Several items per rack so every planner (including the adaptive
        # ones, which defer near-empty racks) has reason to dispatch.
        for j in range(6):
            state.deliver_item(Item(i * 10 + j, i, arrival=0,
                                    processing_time=5))
    return state


class TestSchemeContract:
    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_at_most_one_rack_per_robot(self, name):
        state = loaded_state()
        scheme = PLANNERS[name](state).plan(0)
        assert len(scheme) <= len(state.idle_robots())
        assert len(set(scheme.robot_ids)) == len(scheme.robot_ids)
        assert len(set(scheme.rack_ids)) == len(scheme.rack_ids)

    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_paths_start_at_robot_positions(self, name):
        state = loaded_state()
        scheme = PLANNERS[name](state).plan(0)
        for assignment in scheme:
            robot = state.robots[assignment.robot_id]
            assert assignment.pickup_path.source == robot.location

    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_paths_end_at_selected_rack_homes(self, name):
        state = loaded_state()
        scheme = PLANNERS[name](state).plan(0)
        for assignment in scheme:
            rack = state.racks[assignment.rack_id]
            assert assignment.pickup_path.goal == rack.home

    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_scheme_paths_mutually_conflict_free(self, name):
        state = loaded_state(n_robots=3)
        scheme = PLANNERS[name](state).plan(0)
        paths = [a.pickup_path for a in scheme]
        starts = {(p.start_time, p.source) for p in paths}
        for clash in find_conflicts(paths):
            # Only co-located parked robots may share their start vertex
            # (idle robots are non-blocking by design).
            assert (clash.time, clash.cell) in starts

    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_empty_when_no_robots(self, name):
        state = loaded_state()
        planner = PLANNERS[name](state)
        for robot in state.robots:
            state.dispatch(robot, state.racks[robot.robot_id])
        assert state.selectable_racks()
        assert len(planner.plan(0)) == 0

    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_empty_when_no_selectable_racks(self, name):
        state = make_two_picker_state()
        assert len(PLANNERS[name](state).plan(0)) == 0

    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_successive_schemes_reserve_against_each_other(self, name):
        state = loaded_state(n_robots=2)
        planner = PLANNERS[name](state)
        first = planner.plan(0)
        # Dispatch the assigned robots/racks, then plan again next tick.
        for assignment in first:
            state.dispatch(state.robots[assignment.robot_id],
                           state.racks[assignment.rack_id])
        second = planner.plan(1)
        paths = ([a.pickup_path for a in first]
                 + [a.pickup_path for a in second])
        starts = {(p.start_time, p.source) for p in paths}
        for clash in find_conflicts(paths):
            assert (clash.time, clash.cell) in starts

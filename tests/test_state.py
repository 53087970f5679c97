"""Unit tests for WarehouseState construction, indexes, and invariants."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import SimulationError
from repro.warehouse.entities import (Item, Picker, Rack, RackPhase, Robot,
                                      RobotState)
from repro.warehouse.grid import Grid
from repro.warehouse.layout import build_layout
from repro.warehouse.state import WarehouseState


class TestFromLayout:
    def test_entity_counts(self, small_layout):
        state = WarehouseState.from_layout(small_layout, n_robots=3)
        assert len(state.racks) == small_layout.n_racks
        assert len(state.pickers) == small_layout.n_pickers
        assert len(state.robots) == 3

    def test_robots_park_beneath_first_racks(self, small_layout):
        state = WarehouseState.from_layout(small_layout, n_robots=2)
        assert state.robots[0].location == small_layout.rack_homes[0]
        assert state.robots[1].location == small_layout.rack_homes[1]

    def test_round_robin_picker_assignment(self, small_layout):
        state = WarehouseState.from_layout(small_layout, n_robots=1)
        assignments = [rack.picker_id for rack in state.racks]
        assert assignments == [i % 2 for i in range(small_layout.n_racks)]

    def test_explicit_assignment(self, small_layout):
        mapping = [1] * small_layout.n_racks
        state = WarehouseState.from_layout(small_layout, n_robots=1,
                                           rack_to_picker=mapping)
        assert all(rack.picker_id == 1 for rack in state.racks)

    def test_rejects_zero_robots(self, small_layout):
        with pytest.raises(SimulationError):
            WarehouseState.from_layout(small_layout, n_robots=0)

    def test_rejects_more_robots_than_racks(self, small_layout):
        with pytest.raises(SimulationError):
            WarehouseState.from_layout(small_layout,
                                       n_robots=small_layout.n_racks + 1)

    def test_rejects_bad_assignment_length(self, small_layout):
        with pytest.raises(SimulationError):
            WarehouseState.from_layout(small_layout, n_robots=1,
                                       rack_to_picker=[0])

    def test_rejects_bad_picker_id(self, small_layout):
        mapping = [99] * small_layout.n_racks
        with pytest.raises(SimulationError):
            WarehouseState.from_layout(small_layout, n_robots=1,
                                       rack_to_picker=mapping)


def direct_state(rack_id=0, picker_of_rack=0, robot_id=0, picker_id=0):
    """One rack, one picker and one robot on an 8x8 grid, built directly
    (not through ``from_layout``) with the given ids."""
    return WarehouseState(
        grid=Grid(8, 8),
        racks=[Rack(rack_id=rack_id, home=(3, 3), picker_id=picker_of_rack)],
        pickers=[Picker(picker_id=picker_id, location=(0, 0))],
        robots=[Robot(robot_id=robot_id, location=(5, 5))])


class TestDirectConstruction:
    """The columns index racks and robots by id and the counts index
    pickers by id, so construction refuses what it cannot index."""

    def test_ids_at_their_positions_are_accepted(self):
        direct_state().check_invariants()

    @pytest.mark.parametrize("kind", ["rack", "robot", "picker"])
    def test_an_id_that_is_not_its_list_position_is_refused(self, kind):
        with pytest.raises(SimulationError,
                           match=f"the {kind} at list position 0 has id 5"):
            direct_state(**{f"{kind}_id": 5})

    def test_a_rack_naming_no_picker_is_refused(self):
        with pytest.raises(SimulationError,
                           match="rack 0 names picker 3, but there are 1"):
            direct_state(picker_of_rack=3)


class TestQueries:
    def test_idle_robots_initially_all(self, small_state):
        assert len(small_state.idle_robots()) == 2

    def test_selectable_racks_need_pending_items(self, small_state):
        assert small_state.selectable_racks() == []
        small_state.deliver_item(Item(0, 3, 0, 10))
        selectable = small_state.selectable_racks()
        assert [r.rack_id for r in selectable] == [3]

    def test_in_transit_rack_not_selectable(self, small_state):
        small_state.deliver_item(Item(0, 3, 0, 10))
        small_state.dispatch(small_state.robots[0], small_state.racks[3])
        assert small_state.racks[3].phase is RackPhase.IN_TRANSIT
        assert small_state.selectable_racks() == []

    def test_racks_of_picker(self, small_state):
        racks = [r for r in small_state.racks if r.picker_id == 0]
        assert len(racks) == 4  # 8 racks round-robin over 2 pickers

    def test_picker_of_rack(self, small_state):
        assert small_state.racks[0].picker_id == 0
        assert small_state.racks[1].picker_id == 1

    def test_pickers_with_work(self, small_state):
        def rescan():
            return sorted({rack.picker_id for rack in small_state.racks
                           if rack.selectable})
        assert small_state.pickers_with_work() == rescan() == []
        small_state.deliver_item(Item(0, 2, 0, 10))  # rack 2 -> picker 0
        assert small_state.pickers_with_work() == rescan() == [0]
        assert list(small_state.selectable_of_picker(0)) == [
            small_state.racks[2]]
        assert list(small_state.selectable_of_picker(1)) == []

    def test_total_pending_items(self, small_state):
        small_state.deliver_item(Item(0, 1, 0, 10))
        small_state.deliver_item(Item(1, 1, 0, 10))
        small_state.deliver_item(Item(2, 4, 0, 10))
        assert small_state.total_pending_items() == 3


class TestInvariants:
    def test_clean_state_passes(self, small_state):
        small_state.check_invariants()

    def test_idle_robot_with_rack_fails(self, small_state):
        small_state.robots[0].rack_id = 2
        with pytest.raises(SimulationError, match="still references"):
            small_state.check_invariants()

    def test_busy_robot_without_rack_fails(self, small_state):
        small_state.robots[0].state = RobotState.TO_RACK
        with pytest.raises(SimulationError, match="no rack assigned"):
            small_state.check_invariants()

    def test_rack_in_transit_unowned_fails(self, small_state):
        small_state.racks[0].phase = RackPhase.IN_TRANSIT
        with pytest.raises(SimulationError, match="IN_TRANSIT but unowned"):
            small_state.check_invariants()

    def test_two_robots_one_rack_fails(self, small_state):
        small_state.dispatch(small_state.robots[0], small_state.racks[0])
        small_state.robots[1].state = RobotState.TO_RACK
        small_state.robots[1].rack_id = 0
        with pytest.raises(SimulationError, match="carried by robots"):
            small_state.check_invariants()

    def test_consistent_mission_passes(self, small_state):
        small_state.dispatch(small_state.robots[0], small_state.racks[0])
        small_state.check_invariants()
        small_state.return_home(small_state.robots[0], small_state.racks[0],
                                5)
        small_state.check_invariants()

    def test_queued_stored_rack_fails(self, small_state):
        small_state.pickers[0].queue.append(0)
        with pytest.raises(SimulationError):
            small_state.check_invariants()

    def test_stale_index_fails(self, small_state):
        # A write outside the three transitions leaves the derived state
        # stale; the rescan twin must catch it.  An append on a rack that
        # is already selectable leaves the index right and only the
        # rack's kept batch facts stale.
        small_state.deliver_item(Item(0, 0, 4, 10))
        small_state.check_invariants()
        small_state.racks[0].pending_items.append(Item(1, 0, 1, 10))
        with pytest.raises(SimulationError, match="batch facts on rack 0"):
            small_state.check_invariants()
        small_state.racks[2].pending_items.append(Item(0, 2, 0, 10))
        with pytest.raises(SimulationError, match="stale selectable-rack"):
            small_state.check_invariants()
        small_state._idle_column[1] = 0
        with pytest.raises(SimulationError,
                           match=r"stale idle-robot column: ids \[1\]"):
            small_state.check_invariants()

    def test_stale_selectable_count_fails(self, small_state):
        # The per-picker counts are the rack column summed per picker: a
        # count the transitions did not move is caught on its own.
        small_state.deliver_item(Item(0, 0, 4, 10))
        small_state._selectable_count[1] += 1
        with pytest.raises(SimulationError,
                           match=r"stale selectable-rack count: ids \[1\]"):
            small_state.check_invariants()

    def test_stale_selectable_column_fails(self, small_state):
        # The column is the selectable set again, by rack id: a byte the
        # transitions did not write is caught on its own.
        small_state.deliver_item(Item(0, 0, 4, 10))
        assert small_state.selectable_column()[0] == 1
        small_state._selectable_column[3] = 1
        with pytest.raises(SimulationError,
                           match=r"stale selectable-rack column: ids \[3\]"):
            small_state.check_invariants()


class IndexMachine(RuleBasedStateMachine):
    """Random sequences of the three transitions; the indices must track
    each step."""

    N_RACKS, N_ROBOTS = 8, 4
    robot_ids = st.integers(0, N_ROBOTS - 1)

    def __init__(self):
        super().__init__()
        layout = build_layout(16, 12, n_racks=self.N_RACKS, n_pickers=2)
        self.state = WarehouseState.from_layout(layout, self.N_ROBOTS)
        self.next_item = 0

    def _item(self, rack_id):
        # Arrivals out of order and mixed processing times, so the kept
        # oldest arrival and batch sum are really exercised.
        self.next_item += 1
        return Item(self.next_item, rack_id, -self.next_item % 7,
                    1 + self.next_item % 4)

    @rule(rack_id=st.integers(0, N_RACKS - 1))
    def deliver(self, rack_id):
        self.state.deliver_item(self._item(rack_id))

    @rule(pick=st.integers(0, 99))
    def dispatch(self, pick):
        robots = self.state.idle_robots()
        racks = self.state.selectable_racks()
        if not robots or not racks:
            return
        robot, rack = robots[pick % len(robots)], racks[pick % len(racks)]
        assert self.state.dispatch(robot, rack)
        assert (robot.state, robot.rack_id) == (RobotState.TO_RACK,
                                                rack.rack_id)
        assert rack.phase is RackPhase.IN_TRANSIT

    @rule(robot_id=robot_ids)
    def return_home(self, robot_id):
        robot = self.state.robots[robot_id]
        if robot.rack_id is None:
            return
        rack = self.state.racks[robot.rack_id]
        self.state.return_home(robot, rack, self.next_item)
        assert robot.location == rack.home
        assert rack.last_return == self.next_item

    @invariant()
    def indices_equal_rescan(self):
        idle = self.state.idle_robots()
        selectable = self.state.selectable_racks()
        expected_idle = [r for r in self.state.robots if r.is_idle]
        expected_selectable = [
            r for r in self.state.racks
            if r.phase is RackPhase.STORED and r.pending_items]
        assert list(map(id, idle)) == list(map(id, expected_idle))
        assert (list(map(id, selectable))
                == list(map(id, expected_selectable)))
        assert self.state.dispatchable() == bool(idle and selectable)
        self.state.check_invariants()

    @invariant()
    def per_picker_queries_equal_rescan(self):
        expected = {picker.picker_id: [] for picker in self.state.pickers}
        for rack in self.state.racks:
            if rack.phase is RackPhase.STORED and rack.pending_items:
                expected[rack.picker_id].append(rack)
        assert self.state.pickers_with_work() == [
            pid for pid, racks in expected.items() if racks]
        for pid, racks in expected.items():
            assert (list(map(id, self.state.selectable_of_picker(pid)))
                    == list(map(id, racks)))

    @invariant()
    def batch_facts_equal_rescan(self):
        for rack in self.state.racks:
            items = rack.pending_items
            assert rack.pending_processing_time == sum(
                item.processing_time for item in items)
            assert rack.oldest_arrival == (
                min(item.arrival for item in items) if items else None)


TestIndexMachine = IndexMachine.TestCase
TestIndexMachine.settings = settings(max_examples=60,
                                     stateful_step_count=40, deadline=None)

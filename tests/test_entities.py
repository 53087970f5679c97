"""Unit tests for warehouse entities (Item, Rack, Picker, Robot)."""

import pytest

from repro.warehouse.entities import (Item, Picker, Rack, RackPhase, Robot,
                                      RobotState)
from repro.warehouse.grid import Grid
from repro.warehouse.state import WarehouseState


class TestItem:
    def test_valid_item(self):
        item = Item(item_id=1, rack_id=0, arrival=5, processing_time=20)
        assert item.processing_time == 20

    def test_rejects_non_positive_processing(self):
        with pytest.raises(ValueError):
            Item(item_id=1, rack_id=0, arrival=0, processing_time=0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Item(item_id=1, rack_id=0, arrival=-1, processing_time=5)

    def test_frozen(self):
        item = Item(item_id=1, rack_id=0, arrival=0, processing_time=5)
        with pytest.raises(Exception):
            item.arrival = 3


class TestRack:
    def make_rack(self):
        return Rack(rack_id=0, home=(2, 3), picker_id=1)

    def test_initially_empty_and_stored(self):
        rack = self.make_rack()
        assert not rack.has_pending
        assert rack.phase is RackPhase.STORED
        assert rack.pending_processing_time == 0
        assert rack.oldest_arrival is None

    def make_world(self, rack):
        return WarehouseState(grid=Grid(5, 5), racks=[rack],
                              pickers=[Picker(0, (0, 4)), Picker(1, (4, 4))],
                              robots=[])

    def test_pending_processing_time_sums_items(self):
        rack = Rack(rack_id=0, home=(2, 3), picker_id=1,
                    pending_items=[Item(0, 0, 0, 7), Item(1, 0, 2, 9)])
        assert rack.pending_processing_time == 16
        assert rack.oldest_arrival == 0

    def test_oldest_arrival(self):
        rack = self.make_rack()
        world = self.make_world(rack)
        world.deliver_item(Item(0, 0, 8, 7))
        world.deliver_item(Item(1, 0, 2, 9))
        assert rack.oldest_arrival == 2
        assert rack.pending_processing_time == 16

    def test_take_batch_empties_pending(self):
        rack = Rack(rack_id=0, home=(2, 3), picker_id=1,
                    pending_items=[Item(0, 0, 0, 7)])
        batch = rack.take_batch()
        assert len(batch) == 1
        assert not rack.has_pending
        assert rack.pending_processing_time == 0
        assert rack.oldest_arrival is None

    def test_items_after_take_batch_form_next_batch(self):
        rack = self.make_rack()
        world = self.make_world(rack)
        world.deliver_item(Item(0, 0, 0, 7))
        rack.take_batch()
        world.deliver_item(Item(1, 0, 5, 9))
        assert rack.pending_processing_time == 9
        assert rack.oldest_arrival == 5
        world.check_invariants()


class TestPicker:
    def test_finish_time_estimate_is_eq3(self):
        picker = Picker(picker_id=0, location=(0, 9))
        picker.remaining_current = 12
        picker.queued_processing = 30
        assert picker.finish_time_estimate == 42

    def test_is_busy(self):
        picker = Picker(picker_id=0, location=(0, 9))
        assert not picker.is_busy
        picker.current_rack = 3
        assert picker.is_busy


class TestRobot:
    def test_initially_idle(self):
        robot = Robot(robot_id=0, location=(1, 1))
        assert robot.is_idle
        assert robot.state is RobotState.IDLE

    def test_busy_states(self):
        assert not RobotState.IDLE.busy
        for state in RobotState:
            if state is not RobotState.IDLE:
                assert state.busy

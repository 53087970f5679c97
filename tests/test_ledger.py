"""The completed-mission ledger: packed columns in, the same missions out.

Two contracts, neither timing-based: the ledger is lossless (append →
materialise gives back equal ``Mission`` objects, and the packed bytes
round-trip) and malformed bytes are refused.  That its readers see what
the per-object list showed them is pinned by the golden traces and the
engine-equivalence suite.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.ledger import MissionLedger
from repro.sim.missions import Mission, MissionStage
from repro.warehouse.entities import Item

ticks = st.integers(min_value=0, max_value=2 ** 40)
ids = st.integers(min_value=0, max_value=2 ** 31)

items = st.builds(Item, item_id=ids, rack_id=ids, arrival=ticks,
                  processing_time=st.integers(min_value=1, max_value=10 ** 6))

done_missions = st.builds(
    Mission, robot_id=ids, rack_id=ids,
    batch=st.lists(items, min_size=1, max_size=40), path=st.none(),
    stage=st.just(MissionStage.DONE), dispatched_at=ticks,
    stage_entered_at=ticks)


class TestLossless:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(done_missions, max_size=12))
    def test_append_then_materialise_returns_equal_missions(self, missions):
        ledger = MissionLedger(missions)
        assert len(ledger) == len(missions)
        assert ledger.n_items == sum(m.n_items for m in missions)
        assert ledger.missions() == missions

    @settings(max_examples=60, deadline=None)
    @given(st.lists(done_missions, max_size=12))
    def test_packed_bytes_round_trip(self, missions):
        ledger = MissionLedger(missions)
        blob = ledger.to_bytes()
        assert len(blob) == ledger.nbytes
        restored = MissionLedger.from_bytes(blob)
        assert restored.to_bytes() == blob
        assert restored.missions() == missions
        # A restored ledger is a live one: it keeps appending.
        for mission in missions[:1]:
            restored.append(mission)
            assert restored.missions() == missions + [mission]


class TestMalformedBytes:
    def blob(self):
        batch = [Item(item_id=i, rack_id=3, arrival=i, processing_time=5)
                 for i in range(4)]
        mission = Mission(robot_id=1, rack_id=3, batch=batch, path=None,
                          stage=MissionStage.DONE, dispatched_at=2,
                          stage_entered_at=90)
        return MissionLedger([mission, mission]).to_bytes()

    def test_empty_ledger_round_trips(self):
        empty = MissionLedger.from_bytes(MissionLedger().to_bytes())
        assert len(empty) == 0 and empty.missions() == []

    @pytest.mark.parametrize("cut", [0, 7, 16, -8])
    def test_truncated_bytes_rejected(self, cut):
        with pytest.raises(ValueError, match="ledger section"):
            MissionLedger.from_bytes(self.blob()[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="ledger section"):
            MissionLedger.from_bytes(self.blob() + b"\x00" * 8)

    def test_batch_offsets_must_partition_the_items(self):
        ledger = MissionLedger.from_bytes(self.blob())
        ledger.batch_end[0] = ledger.batch_end[1]  # an empty second batch
        with pytest.raises(ValueError, match="partition"):
            MissionLedger.from_bytes(ledger.to_bytes())

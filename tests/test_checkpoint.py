"""Checkpoint/restore of a live simulation (service mode).

The contract under test: pickling a paused run and resurrecting it is
*invisible* — the restored run drains to a deterministic view
bit-identical to the uninterrupted run's, for every planner.  Plus the
envelope around the pickle: magic, version gate, cheap header probe,
atomic file writes.
"""

import pickle

import pytest

from repro.errors import CheckpointError, SimulationError
from repro.planners import PLANNERS
from repro.sim.checkpoint import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                  dump_checkpoint, load_checkpoint,
                                  load_checkpoint_bytes,
                                  read_checkpoint_header, save_checkpoint)
from repro.sim.engine import Simulation
from repro.sim.serialize import deterministic_view, result_to_dict
from repro.workloads.datasets import make_mini


def build_sim(planner_name="EATP", n_items=40):
    scenario = make_mini(n_items=n_items)
    state, items = scenario.build()
    planner = PLANNERS[planner_name](state)
    return Simulation(state, planner, items), items


def drained_view(sim):
    return deterministic_view(result_to_dict(sim.run()))


class TestRoundTrip:
    @pytest.mark.parametrize("planner_name", sorted(PLANNERS))
    def test_restore_is_bit_identical_for_every_planner(self, planner_name):
        baseline, _ = build_sim(planner_name)
        expected = drained_view(baseline)

        sim, _ = build_sim(planner_name)
        sim.run_until(60)
        assert 0 < sim.tick  # actually paused mid-run
        restored, extra = load_checkpoint_bytes(dump_checkpoint(sim))
        assert extra is None
        assert restored.tick == sim.tick
        assert drained_view(restored) == expected

    def test_original_continues_unharmed_after_dump(self):
        expected = drained_view(build_sim()[0])
        sim, _ = build_sim()
        sim.run_until(60)
        dump_checkpoint(sim)  # serialising must not perturb the run
        assert drained_view(sim) == expected

    def test_state_pickled_without_the_indices_restores(self):
        """A checkpoint from before ``WarehouseState`` kept its idle /
        selectable indices (and the entities their back-reference) loads:
        the indices are rebuilt and the run continues bit-identically."""
        expected = drained_view(build_sim()[0])
        sim, _ = build_sim()
        sim.run_until(60)
        old, _ = load_checkpoint_bytes(dump_checkpoint(sim))
        for name in ("_idle", "_selectable"):
            del old.state.__dict__[name]
        for entity in old.state.racks + old.state.robots:
            del entity.__dict__["_world"]
        restored, _ = load_checkpoint_bytes(dump_checkpoint(old))
        state = restored.state
        assert all(e._world is state for e in state.racks + state.robots)
        assert state.idle_robots() != state.robots  # genuinely mid-run
        state.check_invariants()
        assert drained_view(restored) == expected

    def test_state_pickled_with_since_removed_fields_restores(self):
        """A checkpoint from when ``SimulationConfig`` had ``purge_interval``
        and the CDT its (switched-off) audit-index slots loads: the stray
        ``__dict__`` keys are carried and ignored."""
        expected = drained_view(build_sim()[0])
        sim, _ = build_sim()
        sim.run_until(60)
        old, _ = load_checkpoint_bytes(dump_checkpoint(sim))
        old.config.__dict__["purge_interval"] = 64
        old.planner.reservation.__dict__.update(
            _vindex=None, _eindex=None, _edge_note=None)
        restored, _ = load_checkpoint_bytes(dump_checkpoint(old))
        assert restored.config.__dict__["purge_interval"] == 64
        assert restored.config == sim.config
        assert drained_view(restored) == expected

    def test_extra_payload_roundtrips(self):
        sim, _ = build_sim()
        sim.run_until(30)
        _, extra = load_checkpoint_bytes(
            dump_checkpoint(sim, extra={"cursor": 17, "tag": "soak"}))
        assert extra == {"cursor": 17, "tag": "soak"}


class TestEnvelope:
    def test_missing_magic_rejected(self):
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint_bytes(b"not a checkpoint at all")

    def test_wrong_version_rejected(self):
        sim, _ = build_sim()
        blob = bytearray(dump_checkpoint(sim))
        # Re-pickle the header with a hostile version, keeping the body.
        import io
        buffer = io.BytesIO(bytes(blob[len(CHECKPOINT_MAGIC):]))
        unpickler = pickle.Unpickler(buffer)
        header = unpickler.load()
        body = buffer.read()
        header["version"] = CHECKPOINT_VERSION + 1
        forged = (CHECKPOINT_MAGIC
                  + pickle.dumps(header, protocol=4) + body)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint_bytes(forged)

    def test_body_naming_a_removed_class_rejected(self):
        # What a parent-written paper-scale EATP checkpoint looks like to
        # this build: its sharded CDT pickled two ``_ProbeIndex`` objects.
        forged = CHECKPOINT_MAGIC + pickle.dumps(
            {"version": CHECKPOINT_VERSION}, protocol=4) + (
            b"crepro.pathfinding.cdt\n_ProbeIndex\n.")
        with pytest.raises(CheckpointError, match="body"):
            load_checkpoint_bytes(forged)

    def test_non_simulation_body_rejected(self):
        forged = CHECKPOINT_MAGIC + pickle.dumps(
            {"version": CHECKPOINT_VERSION}, protocol=4) + pickle.dumps(
            ({"not": "a sim"}, None), protocol=4)
        with pytest.raises(CheckpointError, match="Simulation"):
            load_checkpoint_bytes(forged)

    def test_header_probe_without_unpickling_body(self, tmp_path):
        sim, _ = build_sim()
        sim.run_until(60)
        path = save_checkpoint(sim, tmp_path / "a.ckpt")
        header = read_checkpoint_header(path)
        assert header["version"] == CHECKPOINT_VERSION
        assert header["tick"] == sim.tick
        assert header["planner"] == sim.planner.name
        assert header["items_total"] == sim.items_total

    def test_save_is_atomic_and_loadable(self, tmp_path):
        sim, _ = build_sim()
        sim.run_until(60)
        path = save_checkpoint(sim, tmp_path / "sub" / "b.ckpt")
        assert path.is_file()
        assert not list(tmp_path.rglob("*.tmp"))
        restored, _ = load_checkpoint(path)
        assert restored.tick == sim.tick

    def test_header_probe_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "noise.ckpt"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(CheckpointError):
            read_checkpoint_header(path)


class TestServiceStepping:
    def test_run_until_prefix_matches_uninterrupted_run(self):
        expected = drained_view(build_sim()[0])
        sim, _ = build_sim()
        t = 0
        while not sim.drained:
            t += 25
            sim.run_until(t)
        assert drained_view(sim) == expected

    def test_chunked_feed_matches_upfront_feed(self):
        expected = drained_view(build_sim(n_items=40)[0])

        scenario = make_mini(n_items=40)
        state, items = scenario.build()
        planner = PLANNERS["EATP"](state)
        sim = Simulation(state, planner, items[:15])
        sim.extend_items(items[15:30])
        sim.extend_items(items[30:])
        assert drained_view(sim) == expected

    def test_extend_rejects_non_monotonic_items(self):
        sim, items = build_sim(n_items=10)
        with pytest.raises(SimulationError, match="sort after"):
            sim.extend_items([items[-1]])

    def test_extend_rejects_arrivals_before_the_clock(self):
        from repro.warehouse.entities import Item
        sim, items = build_sim(n_items=10)
        sim.run_until(10_000)  # drains the workload; clock at final tick
        assert sim.drained
        # Sorts after the tail item, but arrives in the run's past.
        stale = Item(item_id=len(items), rack_id=0,
                     arrival=items[-1].arrival + 1, processing_time=5)
        assert stale.arrival < sim.tick
        with pytest.raises(SimulationError, match="before the clock"):
            sim.extend_items([stale])

    def test_extend_after_drain_resumes(self):
        from repro.warehouse.entities import Item
        sim, items = build_sim(n_items=10)
        sim.run_until(10_000)
        assert sim.drained
        fresh = Item(item_id=len(items), rack_id=0,
                     arrival=sim.tick + 5, processing_time=5)
        sim.extend_items([fresh])
        assert not sim.drained
        result = sim.run()
        assert result.metrics.items_processed == len(items) + 1

    def test_result_before_drain_rejected(self):
        sim, _ = build_sim()
        sim.run_until(30)
        with pytest.raises(SimulationError, match="drained"):
            sim.result()

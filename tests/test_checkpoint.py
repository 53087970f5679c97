"""Checkpoint/restore of a live simulation (service mode).

The contract under test: pickling a paused run and resurrecting it is
*invisible* — the restored run drains to a deterministic view
bit-identical to the uninterrupted run's, for every planner.  Plus the
envelope around the pickle: magic, version gate, cheap header probe,
atomic file writes — and one committed file per envelope version, so the
load-or-``CheckpointError`` rule is tested against real bytes.
"""

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro.errors import CheckpointError, SimulationError
from repro.experiments.soak import SoakSpec, _service_loop, build_soak
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.paths import Path as PathfindingPath
from repro.pathfinding.st_astar import search_kernel_name, set_search_kernel
from repro.planners import PLANNERS
from repro.sim.checkpoint import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                  dump_checkpoint, load_checkpoint,
                                  load_checkpoint_bytes,
                                  read_checkpoint_header, save_checkpoint)
from repro.sim.engine import Simulation
from repro.sim.metrics import SteadyStateTracker
from repro.sim.missions import Mission
from repro.sim.serialize import deterministic_view, result_to_dict
from repro.warehouse.entities import Item
from repro.warehouse.grid import Grid
from repro.workloads.datasets import make_mini

FIXTURES = Path(__file__).parent / "fixtures"

COMPILED = build_and_load()

#: The kernels a test can select here (the extension may be absent).
KERNELS = ("python",) if COMPILED is None else ("python", "compiled")


@pytest.fixture(autouse=True)
def _restore_kernel():
    previous = search_kernel_name()
    yield
    set_search_kernel(previous)


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
        assert len(sim.ledger) > 0  # there is history to carry
        assert restored.ledger.to_bytes() == sim.ledger.to_bytes()
        assert drained_view(restored) == expected

    def test_in_flight_legs_travel_packed(self, monkeypatch):
        """A mid-run dump carries each in-flight leg as its key buffer:
        restored equal, drained bit-identically, and smaller than the
        same run dumped with legs as ``(t, x, y)`` tuples — the form
        ``Path`` pickled to before it was packed, which still loads."""
        expected = drained_view(build_sim()[0])
        sim, _ = build_sim()
        sim.run_until(60)
        legs = [mission.path for mission in sim._active.values()
                if mission.path is not None]
        assert legs and sum(map(len, legs)) > 20
        blob = dump_checkpoint(sim)
        restored, _ = load_checkpoint_bytes(blob)
        back = [mission.path for mission in restored._active.values()
                if mission.path is not None]
        assert back == legs
        assert [leg.keys.typecode for leg in back] == ["q"] * len(legs)
        assert [leg.steps for leg in back] == [leg.steps for leg in legs]
        assert drained_view(restored) == expected

        monkeypatch.setattr(PathfindingPath, "__getstate__",
                            lambda self: {"steps": self.steps})
        as_tuples = dump_checkpoint(sim)
        monkeypatch.undo()
        assert len(blob) < len(as_tuples)
        old, _ = load_checkpoint_bytes(as_tuples)
        assert [mission.path for mission in old._active.values()
                if mission.path is not None] == legs
        assert drained_view(old) == expected

    def test_knn_table_is_rebuilt_not_stored(self):
        """EATP's KNN table is a function of the rack homes: the restored
        one is a fresh build, equal in content and in its MC charge."""
        sim, _ = build_sim("EATP")
        sim.run_until(60)
        assert sim.planner.__getstate__()["knn"] is None
        restored, _ = load_checkpoint_bytes(dump_checkpoint(sim))
        knn, knn2 = sim.planner.knn, restored.planner.knn
        assert knn2 is not knn
        assert knn2.memory_bytes() == knn.memory_bytes()
        assert restored.planner.memory_bytes() == sim.planner.memory_bytes()
        grid = sim.planner.grid
        assert all(knn2.nearest((x, y)) == knn.nearest((x, y))
                   for x in range(grid.width) for y in range(grid.height))

    def test_original_continues_unharmed_after_dump(self):
        expected = drained_view(build_sim()[0])
        sim, _ = build_sim()
        sim.run_until(60)
        dump_checkpoint(sim)  # serialising must not perturb the run
        assert drained_view(sim) == expected

    def test_state_pickled_without_the_indices_restores(self):
        """A checkpoint from before ``WarehouseState`` kept its idle /
        selectable indices loads: the indices are rebuilt and the run
        continues bit-identically."""
        expected = drained_view(build_sim()[0])
        sim, _ = build_sim()
        sim.run_until(60)
        old, _ = load_checkpoint_bytes(dump_checkpoint(sim))
        for name in ("_idle", "_selectable"):
            del old.state.__dict__[name]
        restored, _ = load_checkpoint_bytes(dump_checkpoint(old))
        state = restored.state
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

    def test_body_holding_a_tiled_cdt_rejected(self):
        # What an older build's paper-scale EATP checkpoint holds: a tiled
        # CDT under a name this build still resolves.  Refused at load,
        # not restored into a table that fails at its first probe.
        from repro.pathfinding.cdt import ConflictDetectionTable
        table = ConflictDetectionTable()
        table.__dict__ = {"_tiles": {}, "_tile_bits": 5, "_floor": 0}
        body = pickle.dumps((table, None), protocol=2)
        assert body.count(b"\nConflictDetectionTable\n") == 1
        forged = CHECKPOINT_MAGIC + pickle.dumps(
            {"version": CHECKPOINT_VERSION}, protocol=4) + body.replace(
            b"\nConflictDetectionTable\n",
            b"\nShardedConflictDetectionTable\n")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint_bytes(forged)

    @pytest.mark.parametrize("name, layout", [
        ("SpatiotemporalGraph", {
            "_grid": Grid(4, 4), "_layers": {4: bytearray(16)}, "_floor": 0,
            "_high": 4}),
        ("ShardedSpatiotemporalGraph", {
            "_tile_bits": 5, "_tile_mask": 31, "_tile_cells": 1024,
            "_layers": {4: {0: bytearray(1024)}}, "_floor": 0,
            "_n_tile_layers": 1}),
    ])
    def test_body_holding_an_st_graph_layer_layout_rejected(self, name,
                                                            layout):
        # What an older build's NTP checkpoint holds: an ST graph whose
        # python layout was dense layers or tile blocks.  Refused at load,
        # not restored into a table that fails at its first probe.
        from repro.pathfinding import spatiotemporal_graph
        table = getattr(spatiotemporal_graph, name).__new__(
            getattr(spatiotemporal_graph, name))
        table.__dict__ = dict(layout, mutation_stamp=3, _edge_buckets={},
                              _edge_floor=0, _n_edges=0)
        forged = CHECKPOINT_MAGIC + pickle.dumps(
            {"version": CHECKPOINT_VERSION}, protocol=4) + pickle.dumps(
            (table, None), protocol=2)
        with pytest.raises(CheckpointError, match="unreadable.*buckets"):
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

    @pytest.mark.parametrize("tail", [
        pytest.param(lambda blob: blob[:len(CHECKPOINT_MAGIC) + 20],
                     id="truncated-inside-the-header"),
        pytest.param(lambda blob: blob[:len(CHECKPOINT_MAGIC)],
                     id="nothing-after-the-magic"),
        pytest.param(lambda blob: CHECKPOINT_MAGIC + b"\xff garbage \x00" * 4,
                     id="garbage-after-the-magic"),
    ])
    def test_damaged_header_is_a_checkpoint_error(self, tmp_path, tail):
        """Both readers: a raw ``EOFError`` / ``UnpicklingError`` from the
        header must never escape."""
        sim, _ = build_sim()
        damaged = tail(dump_checkpoint(sim))
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(damaged)
        with pytest.raises(CheckpointError, match="header"):
            read_checkpoint_header(path)
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint_bytes(damaged)

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda blob: blob[:-8], id="truncated"),
        pytest.param(lambda blob: blob + b"\x00" * 8, id="trailing-bytes"),
    ])
    def test_damaged_ledger_section_rejected(self, damage):
        sim, _ = build_sim()
        sim.run_until(60)
        with pytest.raises(CheckpointError, match="ledger"):
            load_checkpoint_bytes(damage(dump_checkpoint(sim)))


class TestCommittedFixtures:
    """One real file per envelope version: it loads and drains to a pinned
    result, or it is refused with a ``CheckpointError`` — never a crash.

    Each was written by the build whose version it carries with::

        PYTHONPATH=src python -c "
        from repro.planners import PLANNERS
        from repro.sim.checkpoint import CHECKPOINT_VERSION, save_checkpoint
        from repro.sim.engine import Simulation
        from repro.workloads.datasets import make_mini
        state, items = make_mini(n_items=40).build()
        sim = Simulation(state, PLANNERS['EATP'](state), items)
        sim.run_until(60)
        save_checkpoint(sim, f'tests/fixtures/checkpoint-v{CHECKPOINT_VERSION}-eatp.ckpt')"

    A new envelope version adds a file; the older files stay and move to
    whichever side of the rule the new build puts them on.
    """

    #: sha256 of the drained run's deterministic view (compact JSON,
    #: sorted keys).  Changes only with an intentional behaviour change —
    #: the same event that regenerates ``tests/golden/``.  Re-pinned in
    #: PR 18 for the view's schema alone (``metrics.batch`` gone,
    #: ``rescued_legs`` under ``metrics.fastpath``; putting the old block
    #: back reproduces be35beca…) and again in PR 21 (``fallback``'s
    #: ``windowed_legs`` key became ``budget_exhausted``, both 0 here;
    #: putting the old key back reproduces eaaac75d…); the file itself is
    #: PR 16's, untouched.
    V2_DRAINED_DIGEST = (
        "9f291450fabd2282a5e5b8d823e49f67b95cf1c9bf1016f010487ee2c43573c3")

    def test_v2_fixture_loads_and_drains_to_the_pinned_result(self):
        path = FIXTURES / "checkpoint-v2-eatp.ckpt"
        header = read_checkpoint_header(path)
        assert (header["version"], header["tick"]) == (2, 60)
        sim, extra = load_checkpoint(path)
        assert extra is None
        assert len(sim.ledger) == header["missions_completed"] == 3
        # Written when wakes could batch: the planner and its config
        # still carry those attributes, and nothing reads them.
        assert set(vars(sim.planner.config)) \
            > {f.name for f in dataclasses.fields(sim.planner.config)}
        view = drained_view(sim)
        # The file is this build's own run, paused: same result as never
        # having stopped, and that result is the pinned one.
        assert view == drained_view(build_sim("EATP")[0])
        blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
        assert (hashlib.sha256(blob.encode("utf-8")).hexdigest()
                == self.V2_DRAINED_DIGEST)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_v2_fixture_drains_to_the_pin_under_either_switch(self, kernel):
        # The file holds the python layout of the reservation table; under
        # the compiled switch it is loaded into the native store.  Its
        # path cache holds packed path blobs, which load as cell counts:
        # the cache reads as it did and goes on counting the same pairs.
        set_search_kernel(kernel)
        sim, __ = load_checkpoint(FIXTURES / "checkpoint-v2-eatp.ckpt")
        cache = sim.planner.cache
        assert cache.live_counts() == {"entries": 14, "blob_bytes": 448,
                                       "memory_bytes": 2612}
        assert (cache.hits, cache.misses) == (3, 14)
        blob = json.dumps(drained_view(sim), sort_keys=True,
                          separators=(",", ":"))
        assert (hashlib.sha256(blob.encode("utf-8")).hexdigest()
                == self.V2_DRAINED_DIGEST)
        assert cache.live_counts() == {"entries": 37, "blob_bytes": 1228,
                                       "memory_bytes": 6842}
        assert (cache.hits, cache.misses) == (16, 37)

    def test_v2_fixture_rebuilds_the_per_picker_index(self):
        # Written before the state kept each picker's selectable racks:
        # the restored state derives them, and the run drains to the pin.
        sim, __ = load_checkpoint(FIXTURES / "checkpoint-v2-eatp.ckpt")
        assert sum(map(len, sim.state.selectable_by_picker().values())) > 0
        sim.state.check_invariants()
        blob = json.dumps(drained_view(sim), sort_keys=True,
                          separators=(",", ":"))
        assert (hashlib.sha256(blob.encode("utf-8")).hexdigest()
                == self.V2_DRAINED_DIGEST)

    def test_v1_fixture_state_rebuilds_every_index(self):
        # The envelope refuses version 1 (below), but its state still
        # unpickles — header and body in one pickle stream, as that build
        # wrote them — with every derived index rebuilt from the entities.
        with (FIXTURES / "checkpoint-v1-eatp.ckpt").open("rb") as fh:
            fh.seek(len(CHECKPOINT_MAGIC))
            stream = pickle.Unpickler(fh)
            assert stream.load()["version"] == 1
            state = stream.load()[0].state
        assert sum(map(len, state.selectable_by_picker().values())) > 0
        state.check_invariants()

    def test_v1_fixture_is_refused_naming_both_versions(self):
        path = FIXTURES / "checkpoint-v1-eatp.ckpt"
        assert read_checkpoint_header(path)["version"] == 1
        with pytest.raises(CheckpointError,
                           match=r"version 1 .* reads version 2"):
            load_checkpoint(path)


@pytest.mark.skipif(COMPILED is None, reason="native kernel unavailable")
class TestCheckpointsCrossTheKernelSwitch:
    """A checkpoint carries every table's python layout, whichever layout
    the table held: an EATP soak paused under one kernel switch resumes
    under the other and drains to the uninterrupted run's view."""

    @pytest.mark.parametrize("dump, resume", [("compiled", "python"),
                                              ("python", "compiled")])
    def test_soak_resumes_under_the_other_switch(self, dump, resume):
        spec = SoakSpec(duration=2_400, window_ticks=300, warmup_windows=1,
                        checkpoint_every=0)
        set_search_kernel(dump)
        sim, stream, harness = build_soak(spec)
        blob = _service_loop(sim, stream,
                             SteadyStateTracker(spec.window_ticks), harness,
                             spec, capture_restore_blob=True)
        expected = drained_view(sim)
        set_search_kernel(resume)
        restored, extra = load_checkpoint_bytes(blob)
        _service_loop(restored, extra["stream"], extra["tracker"],
                      extra["harness"], spec)
        assert drained_view(restored) == expected


class _CountingPickler(pickle.Pickler):
    """Collects the distinct ``Mission`` / ``Item`` objects a pickle walks
    (by ``id``: the hook also sees every repeated reference)."""

    def __init__(self, file):
        super().__init__(file, protocol=4)
        self.visited = set()

    def persistent_id(self, obj):
        if isinstance(obj, (Mission, Item)):
            self.visited.add(id(obj))
        return None


class TestDumpCostsWhatIsLive:
    def test_dump_does_not_walk_history(self):
        """The pickled graph holds exactly the live missions and items —
        active missions with their batches, items waiting on racks, items
        fed but not yet arrived — at window 5 and, with five times the
        history behind it, at window 25."""
        import io
        from repro.experiments.soak import (SoakSpec, _close_window,
                                            _feed_through, build_soak)
        from repro.sim.metrics import SteadyStateTracker

        spec = SoakSpec(duration=10_000, window_ticks=400)
        sim, stream, harness = build_soak(spec)
        tracker = SteadyStateTracker(spec.window_ticks)
        visited, completed = {}, {}
        for window in range(1, 26):
            _feed_through(sim, stream, harness, tracker.next_boundary,
                          spec.feed_chunk)
            sim.run_until(tracker.next_boundary)
            _close_window(sim, tracker, harness)
            if window in (5, 25):
                pickler = _CountingPickler(io.BytesIO())
                pickler.dump((sim, {"stream": stream, "tracker": tracker,
                                    "harness": harness}))
                live = (len(sim._active) + sim.items_total
                        - sim.ledger.n_items)
                assert len(pickler.visited) == live, window
                visited[window] = live
                completed[window] = len(sim.ledger)
        assert completed[25] > 4 * completed[5]  # history did grow
        # ... and the walk did not: the two live sets differ by no more
        # than where each boundary fell within a feed chunk and how many
        # robots were out.
        assert (abs(visited[25] - visited[5])
                <= spec.feed_chunk + spec.n_robots), visited
        history = harness.series[-1]["history"]
        assert history["missions"] == completed[25]
        assert history["pending_items"] == visited[25] - len(sim._active)


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

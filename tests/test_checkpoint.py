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
        ``Path`` pickled to before it was packed."""
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

    def test_state_indices_travel_in_the_pickle(self):
        """``WarehouseState``'s idle-robot and selectable-rack columns and
        per-picker counts are pickled, not rebuilt on load: a mid-run
        restore holds the very bytes and counts a rebuild from the
        entities derives, and the run continues bit-identically."""
        expected = drained_view(build_sim()[0])
        sim, _ = build_sim()
        sim.run_until(60)
        restored, _ = load_checkpoint_bytes(dump_checkpoint(sim))
        state = restored.state
        assert state.idle_robots() != state.robots  # genuinely mid-run
        names = ("_idle_column", "_selectable_column", "_selectable_count")
        loaded = {name: getattr(state, name) for name in names}
        state._rebuild_indexes()
        assert loaded == {name: getattr(state, name) for name in names}
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
    """One real file per envelope version: the current version loads and
    drains to a pinned result, and every older one is refused with a
    ``CheckpointError`` naming both versions — never a crash, and never
    converted.

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
    whichever side of the rule the new build puts them on.  Version 3
    made the envelope the only rule, so versions 1 and 2 are refused:
    no class converts the layouts they hold.  Version 4 added the
    world's selectable-rack column, so version 3 is refused too.
    Version 5 keeps each membership once (the idle-robot and
    selectable-rack columns and the per-picker counts, where version 4
    also held id-sorted lists), so version 4 is refused as well.
    """

    #: sha256 of the drained run's deterministic view (compact JSON,
    #: sorted keys).  Changes only with an intentional behaviour change —
    #: the same event that regenerates ``tests/golden/``.  The version-3
    #: file is the paused run the version-2 file held, and drains to the
    #: digest pinned on that file; so do the version-4 and version-5
    #: files.
    DRAINED_DIGEST = (
        "9f291450fabd2282a5e5b8d823e49f67b95cf1c9bf1016f010487ee2c43573c3")

    CURRENT = FIXTURES / "checkpoint-v5-eatp.ckpt"

    def assert_pinned(self, view):
        blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
        assert (hashlib.sha256(blob.encode("utf-8")).hexdigest()
                == self.DRAINED_DIGEST)

    def test_v5_fixture_loads_and_drains_to_the_pinned_result(self):
        header = read_checkpoint_header(self.CURRENT)
        assert (header["version"], header["tick"]) == (5, 60)
        sim, extra = load_checkpoint(self.CURRENT)
        assert extra is None
        assert len(sim.ledger) == header["missions_completed"] == 3
        # The body is exactly this build's graph: no attribute that a
        # retired feature left behind.
        assert set(vars(sim.planner.config)) \
            == {f.name for f in dataclasses.fields(sim.planner.config)}
        assert set(vars(sim.planner)) == set(vars(build_sim()[0].planner))
        # The state's columns and per-picker counts travel in the file.
        assert sum(sim.state._selectable_count) > 0
        sim.state.check_invariants()
        # The file is this build's own run, paused: same result as never
        # having stopped, and that result is the pinned one.
        view = drained_view(sim)
        assert view == drained_view(build_sim("EATP")[0])
        self.assert_pinned(view)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_v5_fixture_drains_to_the_pin_under_either_switch(self, kernel):
        # The file holds the python layout of the reservation table; under
        # the compiled switch it is loaded into the native store.  The
        # path cache holds its pairs and lengths, and goes on counting
        # the same pairs.
        set_search_kernel(kernel)
        sim, __ = load_checkpoint(self.CURRENT)
        cache = sim.planner.cache
        assert cache.live_counts() == {"entries": 14, "blob_bytes": 448,
                                       "memory_bytes": 2612}
        assert (cache.hits, cache.misses) == (3, 14)
        self.assert_pinned(drained_view(sim))
        assert cache.live_counts() == {"entries": 37, "blob_bytes": 1228,
                                       "memory_bytes": 6842}
        assert (cache.hits, cache.misses) == (16, 37)

    def test_v5_fixture_entities_hold_their_fields_only(self):
        # Racks and robots restore their dataclass fields (plus a rack's
        # two derived batch facts), and so does every later checkpoint.
        sim, __ = load_checkpoint(self.CURRENT)
        for __ in range(2):
            entities = sim.state.racks + sim.state.robots
            assert len(entities) == 12 + 3
            for entity in entities:
                assert set(vars(entity)) <= (
                    {f.name for f in dataclasses.fields(entity)}
                    | {"pending_processing_time", "oldest_arrival"})
            sim, __ = load_checkpoint_bytes(dump_checkpoint(sim))

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_fixture_is_refused_naming_both_versions(self, version):
        path = FIXTURES / f"checkpoint-v{version}-eatp.ckpt"
        assert read_checkpoint_header(path)["version"] == version
        with pytest.raises(CheckpointError,
                           match=rf"version {version} .* reads version 5"):
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

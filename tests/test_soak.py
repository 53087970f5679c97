"""The service-mode soak harness and the live-state telemetry it reads."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.soak import (SoakSpec, _feed_through, build_soak,
                                    run_soak, soak_ok, smoke_spec)
from repro.pathfinding.cache import ShortestPathCache
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.paths import Path
from repro.sim.checkpoint import dump_checkpoint, load_checkpoint_bytes
from repro.pathfinding.spatiotemporal_graph import (
    ShardedSpatiotemporalGraph, SpatiotemporalGraph)
from repro.warehouse.grid import Grid


def tiny_spec(**overrides):
    base = dict(duration=1_500, window_ticks=300, warmup_windows=1,
                checkpoint_every=2)
    base.update(overrides)
    return SoakSpec(**base)


class TestLiveCounts:
    """Every reservation structure reports its live-state counters."""

    def _loaded(self, table):
        table.reserve_path(Path(steps=((0, 1, 1), (1, 1, 2), (2, 2, 2))))
        return table.live_counts()

    @pytest.mark.parametrize("factory", [
        lambda: ConflictDetectionTable(),
        lambda: SpatiotemporalGraph(Grid(8, 8)),
        lambda: ShardedSpatiotemporalGraph(),
        lambda: ShardedSpatiotemporalGraph(tile_bits=0),
    ])
    def test_counts_track_reservations_and_memory(self, factory):
        empty = factory().live_counts()
        table = factory()
        loaded = self._loaded(table)
        assert loaded["memory_bytes"] == table.memory_bytes()
        assert loaded["memory_bytes"] >= empty["memory_bytes"]
        # Purging everything returns the live counters to their floor.
        table.purge_before(10)
        assert table.live_counts()["edge_ticks"] == 0

    def test_edge_counts_exposed(self):
        table = ConflictDetectionTable()
        counts = self._loaded(table)
        assert counts["reservations"] == 3
        assert counts["edges"] == 2  # two moves, one cell-to-cell each
        assert counts["memory_bytes"] == table.memory_bytes()

    def test_cache_counts(self):
        cache = ShortestPathCache(threshold=6)
        cache.record((0, 0), (3, 3), 7)
        counts = cache.live_counts()
        assert counts["entries"] == 1
        assert counts["blob_bytes"] > 0
        assert counts["memory_bytes"] == cache.memory_bytes()


class TestSoakSpec:
    def test_rejects_unknown_planner(self):
        with pytest.raises(ConfigurationError):
            SoakSpec(planner="nope")

    def test_rejects_duration_below_one_window(self):
        with pytest.raises(ConfigurationError):
            SoakSpec(duration=10, window_ticks=100)

    def test_rejects_empty_window(self):
        with pytest.raises(ConfigurationError, match="window_ticks"):
            SoakSpec(window_ticks=0)

    def test_rejects_negative_warmup(self):
        # -1 would slice the series to its last window alone
        with pytest.raises(ConfigurationError, match="warmup_windows"):
            SoakSpec(warmup_windows=-1, duration=2000, window_ticks=400)

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_flat_factor(self, factor):
        # every soak would read GROWING
        with pytest.raises(ConfigurationError, match="flat_factor"):
            SoakSpec(flat_factor=factor)

    def test_rejects_negative_checkpoint_cadence(self):
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            SoakSpec(checkpoint_every=-1)

    def test_stream_factory_is_deterministic(self):
        spec = tiny_spec()
        a = spec.make_stream().take(20)
        b = spec.make_stream().take(20)
        assert a == b


class TestRunSoak:
    @pytest.fixture(scope="class")
    def report(self):
        return run_soak(tiny_spec())

    def test_flat_envelope(self, report):
        assert report["flatness"]["flat"]
        assert report["flatness"]["steady_windows"] >= 1

    def test_windows_cover_the_duration(self, report):
        assert report["windows"]
        assert report["windows"][-1]["window_end"] >= 1_500
        for entry in report["windows"]:
            assert "reservation" in entry
            assert entry["reservation"]["memory_bytes"] >= 0
            assert "cache" in entry  # EATP exposes its cache counters

    def test_history_is_the_series_that_grows(self, report):
        history = [entry["history"] for entry in report["windows"]]
        missions = [h["missions"] for h in history]
        assert missions == sorted(missions) and missions[-1] > missions[0]
        assert history[-1]["ledger_bytes"] > history[0]["ledger_bytes"]
        # Every fed item is in exactly one place: the ledger or pending.
        assert all(h["items"] >= h["missions"] and h["pending_items"] >= 0
                   for h in history)
        assert (history[-1]["items"] + history[-1]["pending_items"]
                <= report["final"]["items_processed"])

    def test_restore_is_bit_identical(self, report):
        assert report["restore"]["bit_identical"]
        assert report["restore"]["checkpoint_bytes"] > 0
        assert soak_ok(report)

    def test_drained_result_is_consistent(self, report):
        processed = sum(e["items_processed"] for e in report["windows"])
        # Windows stop at the duration boundary; the drain tail finishes
        # the rest, so the final count can only exceed the window sum.
        assert report["final"]["items_processed"] >= processed

    def test_state_indices_stay_exact_through_windows_and_restores(self):
        # The always-on loop with a checkpoint round-trip at every
        # boundary: a stale idle / selectable index must fail loudly.
        spec = tiny_spec()
        sim, stream, harness = build_soak(spec)
        for boundary in range(spec.window_ticks, spec.duration + 1,
                              spec.window_ticks):
            _feed_through(sim, stream, harness, boundary, spec.feed_chunk)
            sim.run_until(boundary)
            sim.state.check_invariants()
            sim, __ = load_checkpoint_bytes(dump_checkpoint(sim))
            sim.state.check_invariants()
        sim.run()
        sim.state.check_invariants()

    def test_periodic_checkpoints_written(self, tmp_path):
        run_soak(tiny_spec(duration=900, window_ticks=300,
                           checkpoint_every=1),
                 checkpoint_dir=str(tmp_path), verify_restore=False)
        assert list(tmp_path.glob("soak-w*.ckpt"))

    def test_soak_state_is_picklable_mid_run(self):
        sim, stream, harness = build_soak(tiny_spec())
        blob = pickle.dumps((stream, harness))
        stream2, harness2 = pickle.loads(blob)
        assert stream2.emitted == stream.emitted
        assert harness2.fed_through == harness.fed_through

    def test_soak_ok_fails_on_growth_or_divergence(self):
        report = {"flatness": {"flat": False}}
        assert not soak_ok(report)
        report = {"flatness": {"flat": True},
                  "restore": {"bit_identical": False}}
        assert not soak_ok(report)

    def test_smoke_spec_passes_its_own_gates(self):
        # The CI-sized run must be green by construction: this is the
        # tier-1 gate that soak memory stays flat and a restore is
        # bit-identical.
        assert soak_ok(run_soak(smoke_spec()))

"""Unit tests for the metrics recorder and rate formulas."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.metrics import (MetricsRecorder, RunMetrics,
                               SteadyStateTracker, _checkpoint_grid,
                               picker_processing_rate, robot_working_rate)
from repro.sim.serialize import (metrics_from_dict, metrics_to_dict,
                                 window_from_dict, window_to_dict)


class TestRates:
    def test_ppr_is_mean_over_pickers(self):
        # Eq. 6: two pickers, busy 50 and 100 of 200 ticks.
        assert picker_processing_rate([50, 100], 200) == pytest.approx(0.375)

    def test_rwr_is_mean_over_robots(self):
        assert robot_working_rate([100, 0, 50], 100) == pytest.approx(0.5)

    def test_zero_elapsed_is_zero(self):
        assert picker_processing_rate([10], 0) == 0.0
        assert robot_working_rate([10], 0) == 0.0

    def test_empty_fleet_is_zero(self):
        assert picker_processing_rate([], 10) == 0.0
        assert robot_working_rate([], 10) == 0.0


class TestMetricsRecorder:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            MetricsRecorder(0)
        with pytest.raises(ConfigurationError):
            MetricsRecorder(10, n_checkpoints=0)

    def sample(self, recorder, tick=0):
        return recorder.maybe_checkpoint(tick=tick, ppr=0.5, rwr=0.5,
                                         selection_seconds=0.0,
                                         planning_seconds=0.0,
                                         memory_bytes=100)

    def test_no_checkpoint_before_threshold(self):
        recorder = MetricsRecorder(100, n_checkpoints=10)
        recorder.note_items_processed(9)
        assert self.sample(recorder) is None

    def test_checkpoint_on_crossing(self):
        recorder = MetricsRecorder(100, n_checkpoints=10)
        recorder.note_items_processed(10)
        sample = self.sample(recorder, tick=42)
        assert sample is not None
        assert sample.items_processed == 10
        assert sample.tick == 42

    def test_multiple_thresholds_in_one_tick_emit_one_sample(self):
        recorder = MetricsRecorder(100, n_checkpoints=10)
        recorder.note_items_processed(35)
        assert self.sample(recorder) is not None
        assert len(recorder.samples) == 1

    def test_all_checkpoints_emitted_over_run(self):
        recorder = MetricsRecorder(100, n_checkpoints=10)
        for _ in range(100):
            recorder.note_items_processed(1)
            self.sample(recorder)
        assert len(recorder.samples) == 10

    def test_peak_memory_tracked_every_call(self):
        recorder = MetricsRecorder(100, n_checkpoints=2)
        recorder.maybe_checkpoint(tick=0, ppr=0, rwr=0, selection_seconds=0,
                                  planning_seconds=0, memory_bytes=500)
        recorder.maybe_checkpoint(tick=1, ppr=0, rwr=0, selection_seconds=0,
                                  planning_seconds=0, memory_bytes=200)
        assert recorder.peak_memory == 500

    def test_small_workload_single_checkpoint(self):
        recorder = MetricsRecorder(3, n_checkpoints=10)
        recorder.note_items_processed(3)
        self.sample(recorder)
        assert recorder.samples  # no crash on tiny workloads


class TestCheckpointGrid:
    """The threshold grid must be strictly increasing and end at the total.

    The old ``total * i // n`` grid failed both ways: with 7 items over
    10 checkpoints it repeated thresholds (0, 0, 2, 2, ...) and never
    reached 7; with 15 items its last threshold landed at 14, so the
    final checkpoint fired one item early (or, for the run-completion
    sample, not at all).
    """

    def test_small_workload_grid_is_monotonic_and_complete(self):
        assert _checkpoint_grid(7, 10) == [1, 2, 3, 4, 5, 6, 7]

    def test_indivisible_total_ends_exactly_at_total(self):
        grid = _checkpoint_grid(15, 10)
        assert grid[-1] == 15
        assert grid == sorted(set(grid))  # strictly increasing, deduped

    def test_divisible_total_matches_the_old_grid(self):
        # total % n == 0 is where the old grid was already correct —
        # ceil(total*i/n) == total*i//n there, so goldens at 100/10 (and
        # every historical scenario with a round item count) are
        # untouched.
        assert _checkpoint_grid(100, 10) == [10, 20, 30, 40, 50,
                                             60, 70, 80, 90, 100]

    def test_every_grid_ends_at_total(self):
        for total in range(1, 40):
            for n in range(1, 15):
                grid = _checkpoint_grid(total, n)
                assert grid[-1] == total
                assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_small_workload_emits_every_checkpoint(self):
        recorder = MetricsRecorder(7, n_checkpoints=10)
        for _ in range(7):
            recorder.note_items_processed(1)
            recorder.maybe_checkpoint(tick=0, ppr=0, rwr=0,
                                      selection_seconds=0,
                                      planning_seconds=0, memory_bytes=0)
        assert [s.items_processed for s in recorder.samples] == list(range(1, 8))

    def test_final_checkpoint_fires_on_last_item(self):
        recorder = MetricsRecorder(15, n_checkpoints=10)
        recorder.note_items_processed(15)
        recorder.maybe_checkpoint(tick=9, ppr=0, rwr=0, selection_seconds=0,
                                  planning_seconds=0, memory_bytes=0)
        assert recorder.samples[-1].items_processed == 15


class TestExtendTotal:
    def sample(self, recorder, tick=0):
        return recorder.maybe_checkpoint(tick=tick, ppr=0, rwr=0,
                                         selection_seconds=0,
                                         planning_seconds=0, memory_bytes=0)

    def test_shrinking_rejected(self):
        recorder = MetricsRecorder(10)
        with pytest.raises(ValueError):
            recorder.extend_total(9)

    def test_same_total_is_noop(self):
        recorder = MetricsRecorder(10)
        recorder.extend_total(10)
        assert recorder.total_items == 10

    def test_grid_rebuilt_past_processed_items(self):
        recorder = MetricsRecorder(10, n_checkpoints=5)
        recorder.note_items_processed(6)
        self.sample(recorder)
        recorder.extend_total(20)
        # Thresholds already covered by the 6 processed items must not
        # re-fire; the next checkpoint is the first rebuilt threshold
        # beyond them.
        before = len(recorder.samples)
        self.sample(recorder)
        assert len(recorder.samples) == before
        recorder.note_items_processed(2)  # 8 >= threshold 8 of grid(20, 5)
        assert self.sample(recorder) is not None

    def test_extended_run_still_finishes_at_new_total(self):
        recorder = MetricsRecorder(5, n_checkpoints=5)
        recorder.extend_total(8)
        recorder.note_items_processed(8)
        self.sample(recorder)
        assert recorder.samples[-1].items_processed == 8


class TestSteadyStateTracker:
    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            SteadyStateTracker(0)

    def test_window_rates_are_deltas_over_actual_span(self):
        tracker = SteadyStateTracker(100)
        tracker.sample(tick=100, picker_busy_ticks=[50, 50],
                       robot_busy_ticks=[100], items_processed=10,
                       legs_planned=30, memory_bytes=1000)
        # Second boundary overshoots to 250: rates use the 150-tick span.
        sample = tracker.sample(tick=250, picker_busy_ticks=[125, 125],
                                robot_busy_ticks=[250], items_processed=25,
                                legs_planned=75, memory_bytes=1200)
        assert sample.window_start == 100
        assert sample.window_end == 250
        assert sample.items_processed == 15
        assert sample.legs_planned == 45
        assert sample.ppr == pytest.approx(150 / (150 * 2))
        assert sample.rwr == pytest.approx(150 / 150)
        assert sample.items_per_tick == pytest.approx(0.1)
        assert sample.memory_bytes == 1200

    def test_non_advancing_sample_rejected(self):
        tracker = SteadyStateTracker(10)
        tracker.sample(tick=10, picker_busy_ticks=[1], robot_busy_ticks=[1],
                       items_processed=1, legs_planned=1, memory_bytes=1)
        with pytest.raises(ValueError):
            tracker.sample(tick=10, picker_busy_ticks=[1],
                           robot_busy_ticks=[1], items_processed=1,
                           legs_planned=1, memory_bytes=1)

    def test_next_boundary_tracks_last_sample(self):
        tracker = SteadyStateTracker(100)
        assert tracker.next_boundary == 100
        tracker.sample(tick=130, picker_busy_ticks=[], robot_busy_ticks=[],
                       items_processed=0, legs_planned=0, memory_bytes=0)
        assert tracker.next_boundary == 230

    def test_window_sample_serialisation_roundtrip(self):
        tracker = SteadyStateTracker(10)
        sample = tracker.sample(tick=10, picker_busy_ticks=[5],
                                robot_busy_ticks=[10], items_processed=2,
                                legs_planned=6, memory_bytes=42)
        assert window_from_dict(window_to_dict(sample)) == sample


class TestMetricsFromDictTolerance:
    """Stored payloads predating a counter family must still rebuild."""

    def _payload(self):
        metrics = RunMetrics(makespan=7, items_processed=4,
                             missions_completed=2, ppr=0.5, rwr=0.5,
                             peak_memory_bytes=10)
        return metrics_to_dict(metrics)

    @pytest.mark.parametrize("family", ["fallback", "fastpath"])
    def test_missing_family_reads_all_zero(self, family):
        payload = self._payload()
        del payload[family]
        rebuilt = metrics_from_dict(payload)
        view = getattr(rebuilt, f"{family}_view")()
        assert view and all(value == 0 for value in view.values())

    def test_all_families_missing_reads_all_zero(self):
        payload = self._payload()
        for family in ("fallback", "fastpath"):
            del payload[family]
        rebuilt = metrics_from_dict(payload)
        assert rebuilt.makespan == 7
        for family in ("fallback", "fastpath"):
            view = getattr(rebuilt, f"{family}_view")()
            assert all(value == 0 for value in view.values())

    def test_rescued_legs_round_trips_in_fastpath(self):
        metrics = RunMetrics(makespan=7, fastpath={
            "free_flow_legs": 9, "audit_rejects": 3, "misses": 1,
            "rescued_legs": 2})
        payload = metrics_to_dict(metrics)
        assert payload["fastpath"]["rescued_legs"] == 2
        assert "batch" not in payload
        assert metrics_from_dict(payload).fastpath_view() \
            == metrics.fastpath_view()

    def test_pre_pr18_payload_reads_rescued_zero(self):
        """A payload stored when ``rescued_legs`` lived in the (deleted)
        ``batch`` block: the block is ignored, the missing key reads 0."""
        payload = self._payload()
        del payload["fastpath"]["rescued_legs"]
        payload["batch"] = {"batch_conflicts": 3, "rescued_legs": 5}
        rebuilt = metrics_from_dict(payload)
        assert rebuilt.fastpath_view()["rescued_legs"] == 0
        assert not hasattr(rebuilt, "batch")

"""Tests for the experiment harness and every table/figure regenerator.

These run the regenerators at a small scale and check the *shapes* the
paper claims, not absolute numbers — who wins, which structure is smaller,
which direction the bottleneck migrates.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.ablations import (sweep_cache_threshold, sweep_delta,
                                         sweep_knn, sweep_reservation)
from repro.experiments.badcase import build_bad_case, run_bad_case
from repro.experiments.fig13 import render_fig13, run_fig13
from repro.experiments.harness import run_planner
from repro.experiments.reporting import (format_series, format_table,
                                         percent_improvement)
from repro.experiments import table2
from repro.experiments.table2 import (checkpoint_series, render_fig10,
                                      render_fig11, render_fig12,
                                      render_table3, run_table2)
from repro.workloads.datasets import make_mini

SCALE = 0.18  # keeps each dataset run to a couple of seconds


class TestReporting:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        out = format_series("NTP", [1, 2], [0.5, 0.25])
        assert out == "NTP: (1, 0.500) (2, 0.250)"

    def test_percent_improvement(self):
        assert percent_improvement(200, 100) == pytest.approx(50.0)
        assert percent_improvement(0, 100) == 0.0


class TestHarness:
    def test_run_planner_unknown_name(self):
        with pytest.raises(KeyError):
            run_planner(make_mini(n_items=10), "NOPE")

    def test_run_table2_unknown_dataset(self):
        with pytest.raises(ConfigurationError, match="Syn-C"):
            run_table2(dataset="Syn-C")


@pytest.mark.slow
class TestTable3:
    def test_shapes(self):
        table = table2.makespans(run_table2(scale=SCALE))
        assert set(table) == {"Syn-A", "Syn-B", "Real-Norm", "Real-Large"}
        # Paper fidelity: LEF and ILP are absent on Real-Large.
        assert "LEF" not in table["Real-Large"]
        assert "ILP" not in table["Real-Large"]
        for dataset, makespans in table.items():
            ours = min(makespans.get("ATP"), makespans.get("EATP"))
            # ATP/EATP never lose to NTP, the extended state of the art.
            assert ours <= makespans["NTP"]
        rendered = render_table3(table)
        assert "Table III" in rendered
        assert "-" in rendered  # the missing cells


@pytest.mark.slow
class TestFig10:
    def test_series_shapes(self):
        data = checkpoint_series(run_table2(scale=SCALE, dataset="Syn-A"))
        series = data["Syn-A"]
        assert {s.planner for s in series} == {"NTP", "LEF", "ILP", "ATP",
                                               "EATP"}
        for s in series:
            assert len(s.items) == len(s.ppr) == len(s.rwr)
            assert all(0 <= v <= 1 for v in s.ppr)
            assert all(0 <= v <= 1 for v in s.rwr)
        assert "PPR" in render_fig10(data)


@pytest.mark.slow
class TestFig11:
    def test_cumulative_and_monotone(self):
        data = checkpoint_series(run_table2(scale=SCALE, dataset="Syn-A"))
        for s in data["Syn-A"]:
            assert s.stc_seconds == sorted(s.stc_seconds)
            assert s.ptc_seconds == sorted(s.ptc_seconds)
        rendered = render_fig11(data)
        assert "STC" in rendered and "PTC" in rendered

    def test_eatp_selection_cheaper_than_atp(self):
        # The STC gap is a scaling effect (flip requesting replaces the
        # global rack sort), so it needs a world big enough for the sort
        # to cost something — SCALE is too small, and at 0.6 the two sit
        # within timer noise (EATP ÷ ATP 0.62–1.10 over twenty runs); the
        # dataset's own size shows it (0.45–0.55).
        data = checkpoint_series(run_table2(scale=1.0, dataset="Syn-B"))
        final = {s.planner: s.stc_seconds[-1] for s in data["Syn-B"]
                 if s.stc_seconds}
        assert final["EATP"] < final["ATP"]


@pytest.mark.slow
class TestFig12:
    def test_eatp_lowest_memory(self):
        # Like the paper's Fig. 12, the CDT-vs-graph gap grows with the
        # floor: at tiny scale EATP's fixed KNN/cache overheads mask it,
        # so this shape check runs at 0.6 scale.
        data = checkpoint_series(run_table2(scale=0.6,
                                               dataset="Real-Norm"))
        peaks = {s.planner: s.peak_kib for s in data["Real-Norm"]}
        assert peaks["EATP"] < peaks["ATP"]
        assert "MC" in render_fig12(data)


@pytest.mark.slow
class TestFig13:
    def test_bottleneck_migrates(self):
        report = run_fig13(scale=0.4, window=150)
        assert report.migrated
        assert report.cum_processing > 0
        rendered = render_fig13(report)
        assert "migration observed: True" in rendered


@pytest.mark.slow
class TestBadCase:
    def test_construction_shape(self):
        layout, mapping, items = build_bad_case(k=4, xi=6)
        assert mapping[0] == 0 and set(mapping[1:]) == {1}
        assert len([i for i in items if i.rack_id == 0]) == 4

    def test_rejects_tiny_k(self):
        with pytest.raises(ValueError):
            build_bad_case(k=1)

    def test_greedy_shuttles_more(self):
        result = run_bad_case(k=8)
        assert result.outcomes["NTP"].rack0_trips >= 6
        assert result.shuttle_ratio >= 1.5


@pytest.mark.slow
class TestAblations:
    def test_delta_sweep_runs(self):
        points = sweep_delta(values=(0.1, 0.9), scale=SCALE)
        assert [p.value for p in points] == [0.1, 0.9]
        assert all(p.makespan > 0 for p in points)

    def test_cache_sweep_reports_hit_rate(self):
        points = sweep_cache_threshold(values=(0, 12), scale=SCALE)
        off, on = points
        assert off.extra["cache_finish_rate"] == 0.0
        assert on.extra["cache_finish_rate"] > 0.0

    def test_knn_sweep_runs(self):
        points = sweep_knn(values=(2, 8), scale=SCALE)
        assert all(p.makespan > 0 for p in points)

    def test_reservation_swap_memory_gap(self):
        swap = sweep_reservation(scale=SCALE)
        assert (swap["CDT"].extra["reservation_kib"]
                <= swap["STGraph"].extra["reservation_kib"])

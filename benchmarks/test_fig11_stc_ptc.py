"""Benchmark E4/E5 — regenerate Fig. 11 (selection and planning time).

Prints the cumulative STC/PTC series and asserts the efficiency shapes:
flip requesting keeps EATP's selection cost below ATP's, and the
cache-aided CDT search keeps EATP's planning cost at or below every
A*-on-spatiotemporal-graph planner.
"""

from _bench_common import SHAPE_SCALE, run_once

from repro.experiments.harness import run_planner
from repro.experiments.table2 import (checkpoint_series, render_fig11,
                                      run_table2)
from repro.pathfinding import st_astar
from repro.pathfinding._legacy import tier0_off_patch
from repro.workloads.datasets import all_datasets

#: Runs of every (planner, dataset) cell the shape claims read: the
#: figure's own, then ATP and EATP again, alternating which goes first.
#: Machine load only ever adds wall clock, so each cell's cost is the
#: least of its runs — the reading a burst on a shared host disturbs
#: least.
SHAPE_RUNS = 5


def rerun_cells(costs):
    """Run ATP and EATP over every shape-scale dataset ``SHAPE_RUNS - 1``
    more times, adding each cell's final (STC, PTC) to ``costs``."""
    planners = ["ATP", "EATP"]
    for __ in range(SHAPE_RUNS - 1):
        planners.reverse()
        for name, spec in all_datasets(SHAPE_SCALE).items():
            for planner in planners:
                last = run_planner(spec, planner).metrics.checkpoints[-1]
                costs.setdefault((planner, name), []).append(
                    (last.selection_seconds, last.planning_seconds))


def test_fig11_stc_ptc(benchmark, monkeypatch):
    # The shape claims compare the paper's *per-planner* efficiency
    # designs (flip requesting, cache-aided CDT search).  The tier-0
    # free-flow fast path is a cross-cutting accelerator that collapses
    # PTC for every planner alike, leaving tiny noise-dominated totals
    # that jitter across the 1.10x margin — so the contrast is measured
    # with it pinned off, exactly like the seed-comparison benches.
    # The native search kernel is pinned off for the same reason: it
    # compresses the expansion loop that dominates plain ST-A*, so under
    # the compiled core the totals are small and the per-leg call
    # overhead around the searches sets them — the PTC contrast then
    # measures that overhead, not the paper's Sec. VI-B design.
    # Compiled-vs-python identity is pinned by the cross-kernel
    # equivalence suites under tests/.
    monkeypatch.setattr(*tier0_off_patch())
    previous = st_astar.search_kernel_name()
    st_astar.set_search_kernel("python")
    costs = {}
    try:
        data = checkpoint_series(run_once(benchmark, run_table2,
                                          scale=SHAPE_SCALE))
        for dataset, series in data.items():
            for s in series:
                if s.planner in ("ATP", "EATP") and s.stc_seconds:
                    costs[s.planner, dataset] = [
                        (s.stc_seconds[-1], s.ptc_seconds[-1])]
        rerun_cells(costs)
    finally:
        st_astar.set_search_kernel(
            "compiled" if previous == "compiled" else "python")
    print()
    print(render_fig11(data))

    for series in data.values():
        for s in series:
            # Cumulative counters never decrease.
            assert s.stc_seconds == sorted(s.stc_seconds)
            assert s.ptc_seconds == sorted(s.ptc_seconds)

    # Wall-clock comparisons jitter per dataset under machine load, so the
    # shape claims are asserted on the totals across all datasets, each
    # cell read as the least of its SHAPE_RUNS runs.
    total_stc = {"ATP": 0.0, "EATP": 0.0}
    total_ptc = {"ATP": 0.0, "EATP": 0.0}
    for (planner, __), runs in costs.items():
        assert len(runs) == SHAPE_RUNS
        total_stc[planner] += min(stc for stc, __ in runs)
        total_ptc[planner] += min(ptc for __, ptc in runs)
    assert total_stc["EATP"] < total_stc["ATP"], (
        f"flip requesting should cut selection time (got {total_stc})")
    assert total_ptc["EATP"] <= total_ptc["ATP"] * 1.10, (
        f"cache-aided planning should not cost more than plain ST-A* "
        f"(got {total_ptc})")

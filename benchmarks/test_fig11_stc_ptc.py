"""Benchmark E4/E5 — regenerate Fig. 11 (selection and planning time).

Prints the cumulative STC/PTC series and asserts the efficiency shapes:
flip requesting keeps EATP's selection cost below ATP's, and the
cache-aided CDT search keeps EATP's planning cost at or below every
A*-on-spatiotemporal-graph planner.
"""

from _bench_common import SHAPE_SCALE, run_once

from repro.experiments.fig11 import render_fig11, run_fig11
from repro.pathfinding import st_astar
from repro.pathfinding._legacy import tier0_off_patch


def test_fig11_stc_ptc(benchmark, monkeypatch):
    # The shape claims compare the paper's *per-planner* efficiency
    # designs (flip requesting, cache-aided CDT search).  The tier-0
    # free-flow fast path is a cross-cutting accelerator that collapses
    # PTC for every planner alike, leaving tiny noise-dominated totals
    # that jitter across the 1.10x margin — so the contrast is measured
    # with it pinned off, exactly like the seed-comparison benches.
    # The native search kernel is pinned off for the same reason: it
    # compresses the interpreter-bound expansion loop that dominates
    # plain ST-A*, while EATP's residual cost (the cache walk in the
    # finisher tail) stays in python — so under the compiled core the
    # PTC contrast measures kernel coverage, not the paper's Sec. VI-B
    # design.  Compiled-vs-python identity is pinned by the cross-kernel
    # equivalence suites under tests/.
    monkeypatch.setattr(*tier0_off_patch())
    previous = st_astar.search_kernel_name()
    st_astar.set_search_kernel("python")
    try:
        data = run_once(benchmark, run_fig11, scale=SHAPE_SCALE)
    finally:
        st_astar.set_search_kernel(
            "compiled" if previous == "compiled" else "python")
    print()
    print(render_fig11(data))

    # Wall-clock comparisons jitter per dataset under machine load, so the
    # shape claims are asserted on the totals across all datasets.
    total_stc = {"ATP": 0.0, "EATP": 0.0}
    total_ptc = {"ATP": 0.0, "EATP": 0.0}
    for dataset, series in data.items():
        for s in series:
            if s.planner in total_stc and s.stc_seconds:
                total_stc[s.planner] += s.stc_seconds[-1]
                total_ptc[s.planner] += s.ptc_seconds[-1]
            # Cumulative counters never decrease.
            assert s.stc_seconds == sorted(s.stc_seconds)
            assert s.ptc_seconds == sorted(s.ptc_seconds)
    assert total_stc["EATP"] < total_stc["ATP"], (
        f"flip requesting should cut selection time (got {total_stc})")
    assert total_ptc["EATP"] <= total_ptc["ATP"] * 1.10, (
        f"cache-aided planning should not cost more than plain ST-A* "
        f"(got {total_ptc})")

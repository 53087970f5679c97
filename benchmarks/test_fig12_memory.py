"""Benchmark E6 — regenerate Fig. 12 (memory consumption).

Prints the MC series and asserts the paper's claim: EATP's conflict
detection table keeps its footprint below the planners that carry the
dense time-expanded reservation graph.
"""

from _bench_common import SHAPE_SCALE, run_once

from repro.experiments.table2 import (checkpoint_series, render_fig12,
                                      run_table2)


def test_fig12_memory(benchmark):
    data = checkpoint_series(run_once(benchmark, run_table2,
                                      scale=SHAPE_SCALE))
    print()
    print(render_fig12(data))

    for dataset, series in data.items():
        peaks = {s.planner: s.peak_kib for s in series}
        graph_planners = [p for p in ("NTP", "LEF", "ILP", "ATP")
                          if p in peaks]
        assert all(peaks["EATP"] < peaks[p] * 1.02 for p in graph_planners), (
            f"{dataset}: the CDT should keep EATP's footprint at or below "
            f"the spatiotemporal-graph planners (got {peaks})")

"""Benchmark E2/E3 — regenerate Fig. 10 (PPR and RWR series).

Prints the checkpoint series for every dataset and asserts the paper's
shape: the adaptive planners end with the highest picker processing rate
(they finish the same work in less time) and their rates are valid
fractions throughout.
"""

from _bench_common import BENCH_SCALE, run_once

from repro.experiments.table2 import (checkpoint_series, render_fig10,
                                      run_table2)


def test_fig10_ppr_rwr(benchmark):
    data = checkpoint_series(run_once(benchmark, run_table2,
                                      scale=BENCH_SCALE))
    print()
    print(render_fig10(data))

    for dataset, series in data.items():
        finals_ppr = {s.planner: s.ppr[-1] for s in series if s.ppr}
        best_adaptive = max(finals_ppr.get("ATP", 0.0),
                            finals_ppr.get("EATP", 0.0))
        assert best_adaptive >= finals_ppr["NTP"], (
            f"{dataset}: adaptive PPR should beat NTP "
            f"(got {finals_ppr})")
        for s in series:
            assert all(0.0 <= v <= 1.0 for v in s.ppr)
            assert all(0.0 <= v <= 1.0 for v in s.rwr)
            assert s.items == sorted(s.items)

"""Benchmarks A1–A4 — the ablations of :mod:`repro.experiments.ablations`.

Each ablation prints its sweep table and asserts the design claim it
isolates:

* A1 (δ): moderate bootstrap (δ ≤ 0.4) trains effectively — the paper's
  Sec. V-D observation.
* A2 (L): enabling the cache produces cache-finished legs and does not
  hurt makespan materially.
* A3 (K): widening the flip-requesting probe improves makespan toward the
  ATP level, at higher selection cost.
* A4: swapping the CDT for the dense spatiotemporal graph inflates the
  reservation footprint with no makespan benefit.
"""

from _bench_common import BENCH_SCALE, run_once

from repro.experiments.ablations import (sweep_cache_threshold, sweep_delta,
                                         sweep_knn, sweep_reservation)


def test_ablation_a1_delta(benchmark):
    points = run_once(benchmark, sweep_delta,
                      values=(0.0, 0.1, 0.2, 0.4, 0.8, 1.0),
                      scale=BENCH_SCALE)
    print()
    for p in points:
        print(f"  delta={p.value}: makespan={p.makespan}")
    by_delta = {p.value: p.makespan for p in points}
    # The paper: δ < 0.4 contributes to effective training.  Pure greedy
    # (δ=1, i.e. NTP-with-updates) must not beat the mixed regime.
    best_mixed = min(by_delta[d] for d in (0.1, 0.2, 0.4))
    assert best_mixed <= by_delta[1.0], (
        f"mixed bootstrap should beat pure greedy (got {by_delta})")


def test_ablation_a2_cache_threshold(benchmark):
    points = run_once(benchmark, sweep_cache_threshold,
                      values=(0, 4, 8, 12, 20), scale=BENCH_SCALE)
    print()
    for p in points:
        print(f"  L={p.value}: makespan={p.makespan} "
              f"finish_rate={p.extra['cache_finish_rate']:.2f} "
              f"ptc={p.planning_seconds:.3f}s")
    off = points[0]
    widest = points[-1]
    assert off.extra["cache_finish_rate"] == 0.0
    assert widest.extra["cache_finish_rate"] > 0.3, (
        "a wide cache should finish a substantial share of legs")
    assert widest.makespan <= off.makespan * 1.15, (
        "cache-aiding trades little solution quality")


def test_ablation_a3_knn(benchmark):
    points = run_once(benchmark, sweep_knn, values=(1, 3, 8, 16),
                      scale=BENCH_SCALE)
    print()
    for p in points:
        print(f"  K={p.value}: makespan={p.makespan} "
              f"stc={p.selection_seconds:.3f}s")
    narrow = points[0]
    wide = points[-1]
    assert wide.makespan <= narrow.makespan, (
        "a wider probe should not plan worse than a blinkered one")


def test_ablation_a4_reservation(benchmark):
    swap = run_once(benchmark, sweep_reservation, scale=0.6)
    print()
    for label, p in swap.items():
        print(f"  {label}: makespan={p.makespan} "
              f"reservation={p.extra['reservation_kib']:.0f}KiB")
    assert (swap["CDT"].extra["reservation_kib"]
            < swap["STGraph"].extra["reservation_kib"]), (
        "the CDT must be smaller than the dense time-expanded graph")
    assert swap["CDT"].makespan <= swap["STGraph"].makespan * 1.05, (
        "the CDT answers identically, so makespan must not degrade")

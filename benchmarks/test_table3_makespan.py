"""Benchmark E1 — regenerate Table III (makespan on all four datasets).

Prints the table in the paper's layout and asserts its qualitative shape:
the adaptive planners (ATP/EATP) beat every baseline on every dataset,
EATP stays within a few percent of ATP, and NTP — the extended state of
the art the paper's headline 37.1% is measured against — is the weakest
on the large bursty workloads.
"""

from _bench_common import BENCH_SCALE, run_once

from repro.experiments import table2


def test_table3_makespan(benchmark):
    table = table2.makespans(run_once(benchmark, table2.run_table2,
                                      scale=BENCH_SCALE))
    print()
    print(table2.render_table3(table))

    for dataset, makespans in table.items():
        ours = min(makespans["ATP"], makespans["EATP"])
        baselines = [v for p, v in makespans.items()
                     if p in ("NTP", "LEF", "ILP")]
        assert ours <= min(baselines) * 1.02, (
            f"{dataset}: adaptive planners should at least match every "
            f"baseline (got {makespans})")
        assert makespans["EATP"] <= makespans["ATP"] * 1.20, (
            f"{dataset}: EATP should stay close to ATP")

    # The paper's Table III dashes: LEF/ILP skipped on Real-Large.
    assert "LEF" not in table["Real-Large"]

    # Headline shape on the largest dataset: a double-digit gain vs NTP.
    large = table["Real-Large"]
    gain = (large["NTP"] - large["ATP"]) / large["NTP"]
    assert gain > 0.10, f"expected >10% gain over NTP, got {gain:.1%}"

#!/usr/bin/env python3
"""Compare two results files written by ``bench/run.py``: ``compare.py A B``.

``A`` is the parent (or the first set of runs of one commit), ``B`` the
change (or the second set).  For every (workload, end-to-end metric) the
verdict is one of

* ``within bound`` — B's median is no worse than A's by more than the
  bound ``BENCHMARK.json`` fixes for the metric;
* ``regression`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so the runs
  cannot tell; unless every run of B reads better than every run of A,
  which is reported as ``better``.

The failed share (failed ÷ attempted operations) of each side is compared
too: a benchmark that got faster by failing more did not get faster.
Exits 1 on any regression or a higher failed share.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, share B is worse by, spread)`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    noise = max(spread(a), spread(b))
    if noise > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "better", worse_by, noise
        return "unresolved", worse_by, noise
    return ("regression" if worse_by > bound else "within bound",
            worse_by, noise)


def failed_share(runs: List[Dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(a: Dict, b: Dict, benchmark: Dict) -> bool:
    """Print the verdict table; ``True`` when nothing regressed."""
    ok = True
    for name in (w["name"] for w in benchmark["workloads"]):
        runs_a = a["workloads"][name]["runs"]
        runs_b = b["workloads"][name]["runs"]
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        flag = "" if share_b <= share_a else "  <-- MORE FAILURES"
        ok = ok and share_b <= share_a
        print(f"{name}: failed share {share_a:.6f} -> {share_b:.6f}{flag}")
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            vals_a = [r["metrics"][key]["value"] for r in runs_a]
            vals_b = [r["metrics"][key]["value"] for r in runs_b]
            what, worse_by, noise = verdict(vals_a, vals_b, metric["better"],
                                            metric["bound"])
            ok = ok and what != "regression"
            print(f"  {key:<16}{statistics.median(vals_a):>14.4f} -> "
                  f"{statistics.median(vals_b):<14.4f}{metric['unit']:<6}"
                  f" worse by {worse_by:+.3f} (bound {metric['bound']:.2f},"
                  f" spread {noise:.3f}, n={len(vals_a)}/{len(vals_b)})"
                  f"  {what}")
    return ok


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    benchmark = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return 0 if compare(a, b, benchmark) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

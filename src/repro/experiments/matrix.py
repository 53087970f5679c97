"""``python -m repro matrix`` — run a (scenario × planner) grid in parallel.

The scenario axis comes from the family registry in
:mod:`repro.workloads.datasets`; the planner axis defaults to the paper's
five.  Finished cells stream into ``<results-dir>/<matrix-name>/`` and a
re-run skips everything already on disk::

    python -m repro matrix --family table2 --workers 4 --results-dir results
    python -m repro matrix --family fleet-ladder --planners NTP,EATP --scale 0.3
    python -m repro matrix --family obstructed --workers 2 --fresh
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..planners import PLANNERS
from ..sim.metrics import FALLBACK_KEYS, FASTPATH_KEYS
from ..workloads.datasets import SCENARIO_FAMILIES, scenario_family
from .harness import DEFAULT_PLANNERS, plan_cells, run_matrix
from .reporting import format_table
from .store import ResultStore, open_store


def parse_planners(raw: str) -> tuple:
    """``--planners`` parser: split, canonicalise, validate *early*.

    Names are matched case-insensitively against the planner registry and
    returned in canonical casing; an unknown name fails here with the
    valid choices listed, instead of as a ``KeyError`` minutes later
    inside a worker process (possibly after the known-good cells already
    ran).
    """
    canonical = {name.upper(): name for name in PLANNERS}
    chosen = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        name = canonical.get(token.upper())
        if name is None:
            raise ConfigurationError(
                f"unknown planner {token!r} in --planners; "
                f"choose from {sorted(PLANNERS)}")
        if name not in chosen:
            chosen.append(name)
    if not chosen:
        raise ConfigurationError(
            f"--planners selected nothing (got {raw!r}); "
            f"choose from {sorted(PLANNERS)}")
    return tuple(chosen)


def render_matrix_summary(payloads: Dict[str, dict], title: str) -> str:
    """One row per scenario, one makespan column per planner."""
    scenarios: List[str] = []
    planners: List[str] = []
    makespans: Dict[str, Dict[str, int]] = {}
    for payload in payloads.values():
        scenario, planner = payload["scenario"], payload["planner"]
        if scenario not in scenarios:
            scenarios.append(scenario)
        if planner not in planners:
            planners.append(planner)
        makespans.setdefault(scenario, {})[planner] = (
            payload["result"]["metrics"]["makespan"])
    rows = []
    for scenario in scenarios:
        row = [scenario]
        for planner in planners:
            value = makespans[scenario].get(planner)
            row.append(f"{value:,}" if value is not None else "-")
        rows.append(row)
    return format_table(["Scenario"] + planners, rows, title=title)


def render_slowest_cells(payloads: Dict[str, dict], top: int = 5) -> str:
    """The ``top`` slowest cells by wall-clock — the engine-regression
    tripwire a sweep prints without anyone opening the results dir.

    Cells stored by releases that predate per-cell timing (no ``wall_s``)
    are skipped; cached cells report the wall-clock of the run that
    produced them.
    """
    timed = [(payload["wall_s"], cell_id)
             for cell_id, payload in payloads.items()
             if payload.get("wall_s") is not None]
    if not timed:
        return "(no per-cell wall-clock recorded)"
    timed.sort(reverse=True)
    rows = [[cell_id, f"{wall:.2f}s"] for wall, cell_id in timed[:top]]
    return format_table(["Slowest cells", "Wall"], rows,
                        title=f"Per-cell wall-clock (top {min(top, len(timed))} "
                              f"of {len(timed)})")


def render_fallback_summary(payloads: Dict[str, dict]) -> str:
    """Aggregate fallback-tier counts — the planning pipeline's pulse.

    Shows at a glance whether (and how often) any cell of the sweep left
    the full-search tier; all-zero means the run was byte-identical to
    the pre-pipeline planner behaviour.
    """
    totals = dict.fromkeys(FALLBACK_KEYS, 0)
    cells_with = 0
    for payload in payloads.values():
        fallback = payload["result"]["metrics"].get("fallback", {})
        if any(fallback.get(key, 0) for key in totals):
            cells_with += 1
        for key in totals:
            totals[key] += fallback.get(key, 0)
    if not cells_with:
        return ("fallback tiers: none (every leg completed at the "
                "free-flow or full tier)")
    return (f"fallback tiers: {totals['wait_legs']} wait legs "
            f"({totals['budget_exhausted']} after an exhausted search "
            f"budget), {totals['horizon_replans']} horizon replans "
            f"across {cells_with} cell(s)")


def _fmt_bytes(n_bytes: float) -> str:
    """Human-readable byte count (1 decimal from KB up)."""
    value = float(n_bytes)
    for unit in ("B", "KB", "MB"):
        if value < 1024:
            return (f"{int(value)} B" if unit == "B"
                    else f"{value:.1f} {unit}")
        value /= 1024
    return f"{value:.1f} GB"


def render_fastpath_summary(payloads: Dict[str, dict]) -> str:
    """Aggregate tier-0 fast-path counts — the free-flow tier's pulse.

    The complement of :func:`render_fallback_summary`: where fallback
    tiers fire on *congestion*, the fast path fires on its absence, and a
    healthy sweep shows a high hit rate.  Counters come from the
    serialised run metrics (``metrics.fastpath``), so cells stored by
    releases that predate the fast path read all-zero and are reported as
    carrying no attempts.  ``rescued_legs`` (tier 0.5, already inside
    ``free_flow_legs``) is reported beside the hit rate, never in its
    denominator.

    Per-scenario peak planner memory rides along (one line per rung):
    the fleet ladder's large rungs exist precisely because the paper's
    excluded regime was a *memory* cliff as much as a time one, so the
    sweep surfaces the Fig. 12 peak without anyone opening the results
    directory.
    """
    totals = dict.fromkeys(FASTPATH_KEYS, 0)
    scenarios: List[str] = []
    peaks: Dict[str, List[str]] = {}
    for payload in payloads.values():
        fastpath = payload["result"]["metrics"].get("fastpath", {})
        for key in totals:
            totals[key] += fastpath.get(key, 0)
        # Cells stored by earlier releases (or minimal test payloads)
        # may carry neither scenario/planner labels nor a memory metric.
        scenario = payload.get("scenario")
        peak = payload["result"]["metrics"].get("peak_memory_bytes")
        if scenario is not None and peak is not None:
            if scenario not in scenarios:
                scenarios.append(scenario)
            peaks.setdefault(scenario, []).append(
                f"{payload.get('planner', '?')} {_fmt_bytes(peak)}")
    rescued = totals["rescued_legs"]
    attempts = sum(totals.values()) - rescued
    if not attempts:
        lines = ["fast path: no tier-0 attempts recorded"]
    else:
        lines = [f"fast path: {totals['free_flow_legs']}/{attempts} legs "
                 f"free-flow ({totals['free_flow_legs'] / attempts:.0%} hit "
                 f"rate; {totals['audit_rejects']} audit rejects, "
                 f"{totals['misses']} misses)"]
        if rescued:
            lines[0] += (f"; {rescued} conflicted descents rescued by "
                         f"wait-following")
    for scenario in scenarios:
        lines.append(f"  peak memory [{scenario}]: "
                     + ", ".join(peaks[scenario]))
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="table2",
                        choices=sorted(SCENARIO_FAMILIES),
                        help="scenario family to sweep (registry name)")
    parser.add_argument("--planners", default=",".join(DEFAULT_PLANNERS),
                        help="comma-separated planner names "
                             "(case-insensitive; validated before any "
                             "cell runs) — rerun a single-planner slice "
                             "with e.g. --planners EATP")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scenario scale multiplier")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = serial)")
    parser.add_argument("--results-dir", default=None,
                        help="root directory for per-cell JSON results; "
                             "cells already on disk are not re-run")
    parser.add_argument("--fresh", action="store_true",
                        help="ignore (delete) cached cells before running")
    args = parser.parse_args(argv)

    scenarios = scenario_family(args.family, scale=args.scale)
    planners = parse_planners(args.planners)
    cells = plan_cells(scenarios, planners)
    matrix_name = f"{args.family}-s{args.scale:g}"
    store: Optional[ResultStore] = open_store(args.results_dir, matrix_name)
    if store is not None and args.fresh:
        for cell in cells:
            store.delete(cell.cell_id)

    def progress(cell_id: str, status: str) -> None:
        print(f"  [{status:>6}] {cell_id}", file=sys.stderr, flush=True)

    started = time.perf_counter()
    payloads = run_matrix(cells, workers=args.workers, store=store,
                          progress=progress)
    elapsed = time.perf_counter() - started

    title = (f"Matrix {matrix_name}: {len(cells)} cells, "
             f"{args.workers or 1} worker(s), {elapsed:.1f}s")
    print(render_matrix_summary(payloads, title))
    print(render_slowest_cells(payloads))
    print(render_fallback_summary(payloads))
    print(render_fastpath_summary(payloads))
    if store is not None:
        print(f"cells stored under {store.root}/")


if __name__ == "__main__":
    main()

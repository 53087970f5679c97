"""Table III and Figs. 10–12: four readings of one Table II matrix.

The paper's Sec. VII runs every planner (NTP, LEF, ILP, ATP, EATP) on
every Table II dataset (Syn-A, Syn-B, Real-Norm, Real-Large), less LEF and
ILP on Real-Large — the paper's "too slow to execute" dashes.
:func:`run_table2` plans that grid from ``scenario_family("table2",
scale)`` and runs it through :func:`~repro.experiments.harness.run_matrix`
into the store namespace ``python -m repro matrix --family table2``
writes, ``<results-dir>/table2-s<scale>/``.  Each artefact projects the
payloads it returns:

* Table III — the makespans (:func:`makespans`, :func:`render_table3`);
* Fig. 10 — picker processing rate (Eq. 6) and robot working rate (Eq. 7);
* Fig. 11 — cumulative selection (STC) and planning (PTC) seconds, whose
  absolute values differ from the paper's Java system by construction;
* Fig. 12 — the live planning-structure memory (reservation structure,
  plus EATP's cache/KNN/Q-table) and each run's peak.

The three figures read each run at its ten item-count checkpoints
(:func:`checkpoint_series`).  A stored matrix renders all four without
simulating again::

    python -m repro matrix --family table2 --workers 4 --results-dir R
    python -m repro fig11 --results-dir R
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError
from ..workloads.datasets import scenario_family
from .harness import DEFAULT_PLANNERS, plan_cells, run_matrix
from .reporting import format_series, format_table, percent_improvement
from .store import open_store

Payloads = Dict[str, Dict[str, Any]]


def run_table2(scale: float = 1.0, dataset: Optional[str] = None,
               workers: int = 0, results_dir: Optional[str] = None
               ) -> Payloads:
    """Run the Table II grid, or one ``dataset``'s row of it.

    Returns :func:`run_matrix`'s ``{cell_id: payload}``; cells already in
    the ``results_dir`` store are read, not run.
    """
    scenarios = [spec for spec in scenario_family("table2", scale)
                 if dataset is None or spec.name == dataset]
    if not scenarios:
        raise ConfigurationError(f"no Table II dataset named {dataset!r}")
    cells = plan_cells(scenarios, DEFAULT_PLANNERS)
    return run_matrix(cells, workers=workers,
                      store=open_store(results_dir, f"table2-s{scale:g}"))


def makespans(payloads: Payloads) -> Dict[str, Dict[str, int]]:
    """Table III: ``{dataset: {planner: makespan}}``, skipped cells absent."""
    table: Dict[str, Dict[str, int]] = {}
    for payload in payloads.values():
        table.setdefault(payload["scenario"], {})[payload["planner"]] = (
            payload["result"]["metrics"]["makespan"])
    return table


@dataclass(frozen=True)
class CheckpointSeries:
    """One planner's run on one dataset, read at its checkpoints."""

    planner: str
    items: List[int]
    ppr: List[float]
    rwr: List[float]
    stc_seconds: List[float]
    ptc_seconds: List[float]
    memory_kib: List[float]
    peak_kib: float


def checkpoint_series(payloads: Payloads) -> Dict[str, List[CheckpointSeries]]:
    """Figs. 10–12: ``{dataset: [series per planner]}``."""
    out: Dict[str, List[CheckpointSeries]] = {}
    for payload in payloads.values():
        metrics = payload["result"]["metrics"]
        checkpoints = metrics["checkpoints"]
        out.setdefault(payload["scenario"], []).append(CheckpointSeries(
            planner=payload["planner"],
            items=[c["items_processed"] for c in checkpoints],
            ppr=[c["ppr"] for c in checkpoints],
            rwr=[c["rwr"] for c in checkpoints],
            stc_seconds=[c["selection_seconds"] for c in checkpoints],
            ptc_seconds=[c["planning_seconds"] for c in checkpoints],
            memory_kib=[c["memory_bytes"] / 1024 for c in checkpoints],
            peak_kib=metrics["peak_memory_bytes"] / 1024))
    return out


def render_table3(table: Dict[str, Dict[str, int]]) -> str:
    """Format the makespans in the paper's row/column layout."""
    datasets = list(table)
    rows = []
    for planner in DEFAULT_PLANNERS:
        row = [planner]
        for dataset in datasets:
            value = table[dataset].get(planner)
            row.append(f"{value:,}" if value is not None else "-")
        rows.append(row)
    best_base = []
    for dataset in datasets:
        baselines = [v for p, v in table[dataset].items()
                     if p in ("NTP", "LEF", "ILP") and v is not None]
        ours = [v for p, v in table[dataset].items()
                if p in ("ATP", "EATP") and v is not None]
        gain = percent_improvement(max(baselines), min(ours))
        best_base.append(f"{gain:.1f}%")
    rows.append(["vs worst baseline"] + best_base)
    return format_table(["Method"] + datasets, rows,
                        title="Table III — Makespan comparison")


def render_fig10(data: Dict[str, List[CheckpointSeries]]) -> str:
    """Format both rate figures as labelled series."""
    lines: List[str] = []
    for dataset, series in data.items():
        lines.append(f"Fig. 10 — PPR on {dataset}")
        for s in series:
            lines.append("  " + format_series(s.planner, s.items, s.ppr))
        lines.append(f"Fig. 10 — RWR on {dataset}")
        for s in series:
            lines.append("  " + format_series(s.planner, s.items, s.rwr))
    return "\n".join(lines)


def render_fig11(data: Dict[str, List[CheckpointSeries]]) -> str:
    """Format both time figures as labelled series."""
    lines: List[str] = []
    for dataset, series in data.items():
        lines.append(f"Fig. 11 — STC on {dataset} (seconds)")
        for s in series:
            lines.append("  " + format_series(s.planner, s.items,
                                              s.stc_seconds, "{:.4f}"))
        lines.append(f"Fig. 11 — PTC on {dataset} (seconds)")
        for s in series:
            lines.append("  " + format_series(s.planner, s.items,
                                              s.ptc_seconds, "{:.3f}"))
    return "\n".join(lines)


def render_fig12(data: Dict[str, List[CheckpointSeries]]) -> str:
    """Format the memory figure as labelled series plus peak summary."""
    lines: List[str] = []
    for dataset, series in data.items():
        lines.append(f"Fig. 12 — MC on {dataset} (KiB)")
        for s in series:
            lines.append("  " + format_series(s.planner, s.items,
                                              s.memory_kib, "{:.0f}"))
        peaks = ", ".join(f"{s.planner}={s.peak_kib:.0f}" for s in series)
        lines.append(f"  peaks: {peaks}")
    return "\n".join(lines)


#: Each command's rendering of the payloads; the figures take --dataset,
#: Table III always reads the whole grid.
RENDERERS = {
    "table3": lambda payloads: render_table3(makespans(payloads)),
    "fig10": lambda payloads: render_fig10(checkpoint_series(payloads)),
    "fig11": lambda payloads: render_fig11(checkpoint_series(payloads)),
    "fig12": lambda payloads: render_fig12(checkpoint_series(payloads)),
}


def main(command: str, argv=None) -> None:
    """``python -m repro <command>``, one of :data:`RENDERERS`."""
    parser = argparse.ArgumentParser(prog=f"python -m repro {command}",
                                     description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale multiplier (1.0 = default)")
    if command != "table3":
        parser.add_argument("--dataset", default=None,
                            choices=[None, "Syn-A", "Syn-B", "Real-Norm",
                                     "Real-Large"])
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = serial)")
    parser.add_argument("--results-dir", default=None,
                        help="per-cell JSON result root (enables resume)")
    args = parser.parse_args(argv)
    payloads = run_table2(scale=args.scale,
                          dataset=getattr(args, "dataset", None),
                          workers=args.workers, results_dir=args.results_dir)
    print(RENDERERS[command](payloads))

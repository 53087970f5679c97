"""Ablations A1–A4: the design knobs the paper's Secs. V-D and VI call out.

* **A1 — δ sweep** (Sec. V-D): the paper observes δ < 0.4 trains
  effectively; the sweep shows makespan across the bootstrap range.
* **A2 — L sweep** (Sec. VI-B): cache-aid threshold vs planning time and
  cache hit rate.
* **A3 — K sweep** (Sec. VI-A): flip-requesting breadth vs makespan and
  selection time.
* **A4 — reservation swap**: EATP planning with the CDT versus with the
  dense spatiotemporal graph, isolating the Fig. 12 memory claim.

Run as a module::

    python -m repro.experiments.ablations [--which a1|a2|a3|a4|all]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import PlannerConfig, QLearningConfig
from ..pathfinding.reservation import ReservationTable
from ..pathfinding.spatiotemporal_graph import SpatiotemporalGraph
from ..planners.eatp import EfficientAdaptiveTaskPlanner
from ..sim.engine import Simulation
from ..workloads.datasets import make_syn_a
from .harness import MatrixCell, run_matrix
from .reporting import format_table


@dataclass(frozen=True)
class AblationPoint:
    """One sweep point: the knob value and the metrics it produced."""

    value: float
    makespan: int
    selection_seconds: float
    planning_seconds: float
    peak_memory_kib: float
    extra: Dict[str, float]


def _config_sweep(planner: str, values: Sequence[float],
                  make_config, scale: float, knob: str,
                  workers: int = 0) -> List[AblationPoint]:
    """Run one planner on Syn-A once per knob value, through the matrix."""
    scenario = make_syn_a(scale)
    cells = [MatrixCell(scenario=scenario, planner=planner,
                        planner_config=make_config(value),
                        label=f"{planner}-{knob}={value:g}")
             for value in values]
    payloads = run_matrix(cells, workers=workers)
    points = []
    for value, cell in zip(values, cells):
        m = payloads[cell.cell_id]["result"]["metrics"]
        points.append(AblationPoint(
            value=value, makespan=m["makespan"],
            selection_seconds=m["selection_seconds"],
            planning_seconds=m["planning_seconds"],
            peak_memory_kib=m["peak_memory_bytes"] / 1024, extra={}))
    return points


def sweep_delta(values: Sequence[float] = (0.0, 0.1, 0.2, 0.4, 0.8, 1.0),
                scale: float = 1.0, workers: int = 0) -> List[AblationPoint]:
    """A1: bootstrap degree δ on Syn-A with ATP."""
    return _config_sweep(
        "ATP", values,
        lambda delta: PlannerConfig(qlearning=QLearningConfig(delta=delta)),
        scale, knob="delta", workers=workers)


def sweep_cache_threshold(values: Sequence[int] = (0, 4, 8, 12, 20),
                          scale: float = 1.0) -> List[AblationPoint]:
    """A2: cache-aid threshold L on Syn-A with EATP."""
    points = []
    for threshold in values:
        config = PlannerConfig(cache_threshold=threshold)
        scenario = make_syn_a(scale)
        state, items = scenario.build()
        planner = EfficientAdaptiveTaskPlanner(state, config)
        m = Simulation(state, planner, items).run().metrics
        legs = max(planner.stats.legs_planned, 1)
        points.append(AblationPoint(
            value=threshold, makespan=m.makespan,
            selection_seconds=m.selection_seconds,
            planning_seconds=m.planning_seconds,
            peak_memory_kib=m.peak_memory_bytes / 1024,
            extra={"cache_finish_rate":
                   planner.stats.cache_finished_legs / legs}))
    return points


def sweep_knn(values: Sequence[int] = (1, 3, 5, 8, 16),
              scale: float = 1.0, workers: int = 0) -> List[AblationPoint]:
    """A3: flip-requesting breadth K on Syn-A with EATP."""
    return _config_sweep(
        "EATP", values, lambda k: PlannerConfig(knn_k=int(k)),
        scale, knob="K", workers=workers)


class _EatpOnStGraph(EfficientAdaptiveTaskPlanner):
    """EATP with the dense spatiotemporal graph (A4 control arm)."""

    name = "EATP+STGraph"

    def _make_reservation(self) -> ReservationTable:
        return SpatiotemporalGraph(self.grid)


def sweep_reservation(scale: float = 1.0) -> Dict[str, AblationPoint]:
    """A4: identical EATP planning, reservation structure swapped."""
    out: Dict[str, AblationPoint] = {}
    for label, cls in (("CDT", EfficientAdaptiveTaskPlanner),
                       ("STGraph", _EatpOnStGraph)):
        scenario = make_syn_a(scale)
        state, items = scenario.build()
        planner = cls(state)
        m = Simulation(state, planner, items).run().metrics
        out[label] = AblationPoint(
            value=0.0, makespan=m.makespan,
            selection_seconds=m.selection_seconds,
            planning_seconds=m.planning_seconds,
            peak_memory_kib=m.peak_memory_bytes / 1024,
            extra={"reservation_kib":
                   planner.reservation.memory_bytes() / 1024})
    return out


def _render(points: List[AblationPoint], knob: str, title: str) -> str:
    rows = [[p.value, f"{p.makespan:,}", f"{p.selection_seconds:.3f}",
             f"{p.planning_seconds:.3f}", f"{p.peak_memory_kib:.0f}",
             " ".join(f"{k}={v:.3f}" for k, v in p.extra.items())]
            for p in points]
    return format_table([knob, "makespan", "STC/s", "PTC/s", "MC/KiB", "notes"],
                        rows, title=title)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--which", default="all",
                        choices=("a1", "a2", "a3", "a4", "all"))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for the A1/A3 sweeps")
    args = parser.parse_args(argv)
    if args.which in ("a1", "all"):
        print(_render(sweep_delta(scale=args.scale, workers=args.workers),
                      "delta", "A1 — bootstrap degree sweep (ATP, Syn-A)"))
    if args.which in ("a2", "all"):
        print(_render(sweep_cache_threshold(scale=args.scale), "L",
                      "A2 — cache threshold sweep (EATP, Syn-A)"))
    if args.which in ("a3", "all"):
        print(_render(sweep_knn(scale=args.scale, workers=args.workers), "K",
                      "A3 — flip-requesting breadth sweep (EATP, Syn-A)"))
    if args.which in ("a4", "all"):
        swap = sweep_reservation(scale=args.scale)
        rows = [[label, f"{p.makespan:,}", f"{p.peak_memory_kib:.0f}",
                 f"{p.extra['reservation_kib']:.0f}"]
                for label, p in swap.items()]
        print(format_table(["reservation", "makespan", "MC/KiB",
                            "final reservation KiB"], rows,
                           title="A4 — CDT vs spatiotemporal graph (EATP)"))


if __name__ == "__main__":
    main()

"""Always-on service soak: open-ended streaming with checkpoint/restore.

Every regenerator in this package runs a *batch*: a fixed item count, a
makespan, a final table row.  A deployed rack-to-picker system has none
of those — items arrive forever and the planner must neither leak memory
nor drift.  The soak harness drives exactly that regime:

* an :class:`~repro.workloads.arrivals.ItemStream` feeds arrivals in
  chunks, always ahead of the event clock, through
  :meth:`~repro.sim.engine.Simulation.extend_items`;
* the run advances window by window (``run_until``), closing a
  :class:`~repro.sim.metrics.WindowSample` at each boundary and
  recording the live-structure counters
  (``planner.reservation.live_counts()``, EATP's cache) into a flatness
  series, beside the size of the completed-mission ledger — the one
  structure that grows with the run by design;
* the run checkpoints periodically
  (:mod:`repro.sim.checkpoint`) with the stream and window tracker in
  the envelope's ``extra``, and the harness *proves* restore works: it
  reloads the mid-run checkpoint, drives it to completion with the same
  loop, and requires the restored run's deterministic view to be
  bit-identical to the uninterrupted one.

The flatness check is the memory-leak guard: after a warm-up prefix the
peak reservation footprint must stay within a small factor of the
median — an always-on run whose reservations track *live* state, not
run length.  (EATP's shortest-path cache is keyed by (source, goal)
pairs, a finite set, so it plateaus; it is reported separately rather
than folded into the flatness ratio.)

Run as a module::

    python -m repro soak --planner EATP --duration 20000 [--out soak.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..config import (POSITIVE, Domain, PlannerConfig, SimulationConfig,
                      declare)
from ..errors import ConfigurationError
from ..planners import PLANNERS
from ..sim.checkpoint import (dump_checkpoint, load_checkpoint_bytes,
                              save_checkpoint)
from ..sim.engine import Simulation, SimulationResult
from ..sim.metrics import SteadyStateTracker
from ..sim.serialize import deterministic_view, result_to_dict, window_to_dict
from ..warehouse.layout import build_layout
from ..warehouse.state import WarehouseState
from ..workloads.arrivals import ItemStream, resolve_stream


@declare(duration=Domain(int, 1), window_ticks=Domain(int, 1),
         checkpoint_every=Domain(int, 0), feed_chunk=Domain(int, 1),
         warmup_windows=Domain(int, 0), flat_factor=POSITIVE)
@dataclass(frozen=True)
class SoakSpec:
    """One soak run: a floor, a planner, a stream, and a clock budget."""

    planner: str = "EATP"
    width: int = 18
    height: int = 14
    n_racks: int = 12
    n_pickers: int = 3
    n_robots: int = 3
    #: Registered stream factory name (see ``workloads.arrivals.STREAMS``).
    stream: str = "poisson"
    #: Keyword arguments for the stream factory (``n_racks`` is added).
    stream_params: Tuple[Tuple[str, Any], ...] = (
        ("rate", 0.04), ("seed", 7),
        ("processing_low", 5), ("processing_high", 12))
    #: Stop feeding once the clock passes this tick; then drain.
    duration: int = 20_000
    #: Steady-state window length in ticks.
    window_ticks: int = 1_000
    #: Save a checkpoint every this many windows (0 disables periodic
    #: saves; the mid-run restore proof is taken regardless).
    checkpoint_every: int = 5
    #: Items pulled from the stream per feed call.
    feed_chunk: int = 64
    #: Windows ignored by the flatness check (fill-up transient).
    warmup_windows: int = 4
    #: Post-warmup peak reservation memory must stay within this factor
    #: of the median (purge cadence makes the series saw-toothed, so the
    #: bound is a ratio, not equality).
    flat_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.planner not in PLANNERS:
            raise ConfigurationError(
                f"unknown planner {self.planner!r}; "
                f"choose from {sorted(PLANNERS)}")
        if self.duration < self.window_ticks:
            raise ConfigurationError(
                f"duration ({self.duration}) must cover at least one "
                f"window ({self.window_ticks} ticks)")

    def make_stream(self) -> ItemStream:
        """A fresh stream positioned at item 0."""
        params = dict(self.stream_params)
        params.setdefault("n_racks", self.n_racks)
        return resolve_stream(self.stream)(**params)


@dataclass
class SoakState:
    """Harness-side loop state checkpointed alongside the engine."""

    #: Arrival tick of the last item fed to the engine.
    fed_through: int = -1
    #: Windows closed so far.
    windows_closed: int = 0
    #: Per-window live-structure counters (the flatness series).
    series: List[Dict[str, Any]] = field(default_factory=list)


def build_soak(spec: SoakSpec,
               planner_config: Optional[PlannerConfig] = None,
               sim_config: Optional[SimulationConfig] = None
               ) -> Tuple[Simulation, ItemStream, SoakState]:
    """Materialise the world, the planner, and the primed stream."""
    layout = build_layout(spec.width, spec.height,
                          n_racks=spec.n_racks, n_pickers=spec.n_pickers)
    state = WarehouseState.from_layout(layout, spec.n_robots)
    planner = PLANNERS[spec.planner](state, planner_config)
    stream = spec.make_stream()
    harness = SoakState()
    first = stream.take(spec.feed_chunk)
    harness.fed_through = first[-1].arrival
    sim = Simulation(state, planner, first, sim_config)
    return sim, stream, harness


def _feed_through(sim: Simulation, stream: ItemStream, harness: SoakState,
                  t_target: int, chunk: int) -> None:
    """Extend the workload until an arrival at or past ``t_target``.

    Feeding strictly ahead of the clock is what keeps ``run_until``
    honest: with the stream covered through the boundary the engine can
    never mistake a not-yet-fed lull for a drained workload.
    """
    while harness.fed_through < t_target:
        items = stream.take(chunk)
        sim.extend_items(items)
        harness.fed_through = items[-1].arrival


def _close_window(sim: Simulation, tracker: SteadyStateTracker,
                  harness: SoakState) -> None:
    """Sample the window at the clock and extend the flatness series."""
    sample = sim.sample_window(tracker)
    entry: Dict[str, Any] = window_to_dict(sample)
    entry["reservation"] = sim.planner.reservation.live_counts()
    cache = getattr(sim.planner, "cache", None)
    if cache is not None:
        entry["cache"] = cache.live_counts()
    # The one structure that is meant to grow with the run, beside the
    # ones above that must stay flat; ``pending_items`` is what the
    # engine still holds as objects (fed, not yet in the ledger).
    ledger = sim.ledger
    entry["history"] = {
        "missions": len(ledger), "items": ledger.n_items,
        "ledger_bytes": ledger.nbytes,
        "pending_items": sim.items_total - ledger.n_items}
    harness.series.append(entry)
    harness.windows_closed += 1


def _service_loop(sim: Simulation, stream: ItemStream,
                  tracker: SteadyStateTracker, harness: SoakState,
                  spec: SoakSpec, checkpoint_dir: Optional[str] = None,
                  capture_restore_blob: bool = False) -> Optional[bytes]:
    """Stream windows until the clock passes ``spec.duration``.

    Returns the mid-run checkpoint bytes when ``capture_restore_blob``
    is set (taken once, at the first window boundary past half the
    duration) — the restore-equivalence proof resumes from it.
    """
    blob: Optional[bytes] = None
    while sim.tick < spec.duration:
        boundary = min(tracker.next_boundary, spec.duration)
        _feed_through(sim, stream, harness, boundary, spec.feed_chunk)
        sim.run_until(boundary)
        _close_window(sim, tracker, harness)
        extra = {"stream": stream, "tracker": tracker, "harness": harness}
        if (capture_restore_blob and blob is None
                and sim.tick >= spec.duration // 2):
            blob = dump_checkpoint(sim, extra)
        if (checkpoint_dir is not None and spec.checkpoint_every > 0
                and harness.windows_closed % spec.checkpoint_every == 0):
            save_checkpoint(
                sim, f"{checkpoint_dir}/soak-w{harness.windows_closed}.ckpt",
                extra)
    return blob


def _drain(sim: Simulation) -> SimulationResult:
    """Stop feeding and run the remaining workload to completion."""
    return sim.run()


def _flatness(series: List[Dict[str, Any]], warmup: int,
              flat_factor: float) -> Dict[str, Any]:
    """Peak-vs-median verdict on the post-warmup reservation footprint."""
    steady = [entry["reservation"]["memory_bytes"]
              for entry in series[warmup:]]
    if not steady:
        raise ConfigurationError(
            f"soak produced {len(series)} windows, all inside the "
            f"{warmup}-window warmup; lengthen the run")
    peak = max(steady)
    median = statistics.median(steady)
    return {
        "warmup_windows": warmup,
        "steady_windows": len(steady),
        "reservation_peak_bytes": peak,
        "reservation_median_bytes": median,
        "flat_factor": flat_factor,
        "flat": peak <= flat_factor * max(median, 1.0),
    }


def run_soak(spec: SoakSpec,
             planner_config: Optional[PlannerConfig] = None,
             sim_config: Optional[SimulationConfig] = None,
             checkpoint_dir: Optional[str] = None,
             verify_restore: bool = True) -> Dict[str, Any]:
    """Run one soak end to end; returns the report payload.

    The report carries the per-window series, the flatness verdict, the
    drained run's headline metrics, and — when ``verify_restore`` is on —
    the restore-equivalence proof: a checkpoint taken mid-soak is
    reloaded, driven through the *same* loop to completion, and its
    deterministic view compared against the uninterrupted run's.
    """
    sim, stream, harness = build_soak(spec, planner_config, sim_config)
    tracker = SteadyStateTracker(spec.window_ticks)
    blob = _service_loop(sim, stream, tracker, harness, spec,
                         checkpoint_dir=checkpoint_dir,
                         capture_restore_blob=verify_restore)
    result = _drain(sim)
    view = deterministic_view(result_to_dict(result))
    report: Dict[str, Any] = {
        "spec": {
            "planner": spec.planner,
            "floor": f"{spec.width}x{spec.height}",
            "n_racks": spec.n_racks,
            "n_pickers": spec.n_pickers,
            "n_robots": spec.n_robots,
            "stream": spec.stream,
            "stream_params": dict(spec.stream_params),
            "duration_ticks": spec.duration,
            "window_ticks": spec.window_ticks,
        },
        "windows": harness.series,
        "flatness": _flatness(harness.series, spec.warmup_windows,
                              spec.flat_factor),
        "final": {
            "makespan_ticks": result.metrics.makespan,
            "items_processed": result.metrics.items_processed,
            "peak_memory_bytes": result.metrics.peak_memory_bytes,
        },
    }
    if verify_restore:
        if blob is None:
            raise ConfigurationError(
                "soak finished without reaching the mid-run checkpoint; "
                "lengthen the run or lower window_ticks")
        sim2, extra = load_checkpoint_bytes(blob)
        resumed_at = sim2.tick
        _service_loop(sim2, extra["stream"], extra["tracker"],
                      extra["harness"], spec)
        view2 = deterministic_view(result_to_dict(_drain(sim2)))
        report["restore"] = {
            "checkpoint_bytes": len(blob),
            "resumed_at_tick": resumed_at,
            "bit_identical": view2 == view,
        }
    return report


def soak_ok(report: Dict[str, Any]) -> bool:
    """Whether a soak report passes its own acceptance gates."""
    if not report["flatness"]["flat"]:
        return False
    restore = report.get("restore")
    return restore is None or restore["bit_identical"]


def smoke_spec() -> SoakSpec:
    """The CI-sized soak: a few minutes of stream on the mini floor."""
    return SoakSpec(duration=4_000, window_ticks=400, warmup_windows=2)


def render_soak(report: Dict[str, Any]) -> str:
    """One-screen summary of a soak report."""
    flat = report["flatness"]
    lines = [
        f"soak: {report['spec']['planner']} on "
        f"{report['spec']['floor']}, {report['spec']['duration_ticks']} "
        f"ticks of {report['spec']['stream']} stream",
        f"  windows: {len(report['windows'])} × "
        f"{report['spec']['window_ticks']} ticks",
        f"  reservation memory: peak {flat['reservation_peak_bytes']} B, "
        f"median {flat['reservation_median_bytes']:.0f} B "
        f"({'FLAT' if flat['flat'] else 'GROWING'} at factor "
        f"{flat['flat_factor']:g})",
        "  history at the last window: {missions} missions, {items} items "
        "in a {ledger_bytes} B ledger, {pending_items} items pending".format(
            **report["windows"][-1]["history"]),
        f"  drained: {report['final']['items_processed']} items, "
        f"makespan {report['final']['makespan_ticks']}",
    ]
    restore = report.get("restore")
    if restore is not None:
        verdict = ("bit-identical" if restore["bit_identical"]
                   else "DIVERGED")
        lines.append(
            f"  restore: checkpoint {restore['checkpoint_bytes']} B at "
            f"tick {restore['resumed_at_tick']} → {verdict}")
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--planner", default="EATP",
                        choices=sorted(PLANNERS))
    parser.add_argument("--duration", type=int, default=20_000,
                        help="ticks of stream before draining")
    parser.add_argument("--window", type=int, default=1_000,
                        help="steady-state window length in ticks")
    parser.add_argument("--rate", type=float, default=0.04,
                        help="Poisson arrival rate (items per tick)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--checkpoint-dir", default=None,
                        help="directory for periodic checkpoint files")
    parser.add_argument("--no-verify-restore", action="store_true",
                        help="skip the mid-run restore-equivalence proof")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (overrides duration/window)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    spec = smoke_spec() if args.smoke else SoakSpec(
        duration=args.duration, window_ticks=args.window)
    spec = replace(spec, planner=args.planner,
                   stream_params=(("rate", args.rate), ("seed", args.seed),
                                  ("processing_low", 5),
                                  ("processing_high", 12)))
    report = run_soak(spec, checkpoint_dir=args.checkpoint_dir,
                      verify_restore=not args.no_verify_restore)
    print(render_soak(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not soak_ok(report):
        raise SystemExit(1)


if __name__ == "__main__":
    main()

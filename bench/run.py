#!/usr/bin/env python3
"""Run the benchmark: one workload (the driver's form) or all four.

One workload, one process — what the driver calls, and what every run
below is made of::

    python3 bench/run.py --workload paper-ntp --seed 3 --seconds 5 --trace 0

makes a few discarded set-ups, then complete passes until ``--seconds``
have gone by (at least one), checks the outputs, and prints one
JSON object as its last line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1`` (one untraced pass to compare
against, then one pass with the layer shims installed; spans go to
``bench/out/trace-<workload>.json``).  Without ``--seed`` the registry's
own arrival seeds are used and the makespans pinned in ``pins.json`` are
checked.

All four, each run in a fresh child process, one at a time::

    python3 bench/run.py [--repeats 3] [--seed N ...] [--out bench/out/results.json]

prints every metric by name with its unit and writes the results file
``compare.py`` reads (``--seed 1 2 ... 10 --repeats 1`` is the driver's
acceptance procedure: ten runs per workload, each with another seed).  A
correctness miss counts as failed operations and a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

if __name__ == "__main__":
    # Started as a script: swap the script directory for the repository
    # root so ``bench`` imports as a package, and find the program.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))


def require_compiled_kernel() -> str:
    """Build the extension if stale and demand that it serves.

    A python-kernel run is a different program, so there is no fallback:
    ``set_search_kernel("compiled")`` raises when the build did not
    produce a loadable module.
    """
    from repro.pathfinding import st_astar
    from repro.pathfinding._kernel.build import build_extension
    build_extension()
    return st_astar.set_search_kernel("compiled")


def environment() -> Dict[str, Any]:
    """What the numbers were measured on."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "kernel": require_compiled_kernel(), "git_sha": sha}


def _one_pass(workload, tracer, scratch: Path) -> Dict[str, Any]:
    """One complete pass in a fresh work directory, with its span range."""
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    root = len(tracer)
    try:
        with tracer.span("bench.pass"):
            result = workload.run_pass(tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["spans"] = (root, len(tracer))
    return result


def run_workload(name: str, seed: Optional[int], seconds: float, trace: bool,
                 quick: bool = False, scratch: Path = OUT) -> Dict[str, Any]:
    """Measure one workload in this process; returns the result object.

    ``{"correct", "attempted", "failed", "metrics", "problems",
    "speed_share"}`` — the first four are the driver's contract,
    ``problems`` names every correctness miss and ``speed_share`` is the
    share of its full speed the box delivered while measuring.
    """
    from bench import metrics
    from bench.trace import Tracer
    from bench.workclock import WorkClock
    from bench.workloads import WORKLOADS

    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name][1](seed, quick)
    tracer = Tracer()
    passes: List[Dict[str, Any]] = []
    extra_setups: List[int] = []

    with WorkClock() as clock:
        if trace:
            # The untraced pass is only the yardstick for
            # trace.overhead_frac and the traced-equals-untraced check.
            passes.append(_one_pass(workload, tracer, scratch))
            with tracer.layer_shims():
                passes.append(_one_pass(workload, tracer, scratch))
        else:
            for __ in range(workload.extra_setups):
                with tracer.span("bench.setup") as span:
                    workload.set_up()
                extra_setups.append(span)
            started = time.perf_counter()
            while not passes or time.perf_counter() - started < seconds:
                passes.append(_one_pass(workload, tracer, scratch))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Every time below is in work seconds (see workclock.py).
    work = clock.work_seconds
    for result in passes:
        root, stop = result["spans"]
        totals, self_sum = tracer.totals(root, stop, work)
        setup = totals.get("bench.setup")  # absent: set up inside run_matrix
        result.update(
            totals=totals, self_sum=self_sum,
            wall_s=totals["bench.pass"].inclusive,
            run_s=totals["bench.run"].inclusive,
            setup_s=setup.inclusive if setup is not None else None)

    speed_share = clock.speed_share()
    problems: List[str] = []
    if trace:
        traced = passes[1]
        if abs(traced["self_sum"] - traced["wall_s"]) > 0.01 * traced["wall_s"]:
            problems.append("layer self times do not sum to the traced wall")
        values = metrics.per_layer(tracer, traced, passes[0]["run_s"],
                                   speed_share)
        tracer.dump(scratch / f"trace-{name}.json", work)
    else:
        setups = (work([tracer.end_of[span] for span in extra_setups])
                  - work([tracer.start_of[span] for span in extra_setups])
                  ).tolist()
        setups += [p["setup_s"] for p in passes if p["setup_s"] is not None]
        values = metrics.end_to_end(passes, setups, rss_mb)

    first = passes[0]
    for index, other in enumerate(passes[1:], 1):
        if other["digest"] != first["digest"]:
            problems.append(f"pass {index} output differs from pass 0")
    for check, ok in first["checks"].items():
        if not ok:
            problems.append(f"check failed: {check}")
    if seed is None and not quick:
        pinned = json.loads((ROOT / "bench" / "pins.json").read_text())[name]
        if first["makespans"] != pinned:
            problems.append(f"makespans {first['makespans']} != pinned")
    attempted = first["items_offered"]
    failed = attempted - first["items_done"]
    if problems and not failed:
        failed = attempted  # a wrong answer fulfils nothing
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, *__ in (metrics.PER_LAYER if trace
                                      else metrics.END_TO_END)},
        "problems": problems,
        "speed_share": speed_share,
    }


# -- all four workloads, each run in a fresh child ------------------------------


def _child(name: str, seed: Optional[int], seconds: float,
           trace: bool) -> Dict[str, Any]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: child printed no result "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]  # correctness misses and the box's speed
    return result


def run_all(repeats: int, seeds: List[Optional[int]], seconds: float,
            out: Path) -> bool:
    """Every workload: ``repeats`` untraced children per seed, one traced."""
    from bench import metrics
    from bench.workloads import WORKLOADS

    report: Dict[str, Any] = {"environment": environment(), "seeds": seeds,
                              "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            same_seed = [_child(name, seed, seconds, trace=False)
                         for __ in range(repeats)]
            for metric in ("makespan_ticks", "mc_peak_mb"):
                if len({run["metrics"][metric]["value"]
                        for run in same_seed}) > 1:
                    ok = False
                    print(f"  {name}: {metric} differs between repeats "
                          f"of seed {seed}")
            runs += [dict(run, seed=seed) for run in same_seed]
        traced = _child(name, seeds[0], seconds, trace=True)
        for run in runs + [traced]:
            if not run["correct"]:
                ok = False
                print(f"  {name}: " + "; ".join(run["notes"]))
        report["workloads"][name] = {"runs": runs, "traced": traced}
        print(f"{name}: attempted {sum(run['attempted'] for run in runs)}, "
              f"failed {sum(run['failed'] for run in runs)} "
              f"in {len(runs)} runs")
        for metric, unit, *__ in metrics.END_TO_END:
            values = [run["metrics"][metric]["value"] for run in runs]
            print(f"  {metric:<28}{statistics.median(values):>16.4f} {unit:<6}"
                  f" n={len(values)} min={min(values):.4f} "
                  f"max={max(values):.4f}")
        for metric, unit, __ in metrics.PER_LAYER:
            value = traced["metrics"][metric]["value"]
            print(f"  {metric:<28}{value:>16.4f} {unit}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, nargs="+", default=[None],
                        help="arrival seed (default: the registry's seeds); "
                             "several seeds when running all four")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text(
                            encoding="utf-8"))["run_seconds"],
                        help="keep making passes until this much has gone by "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken workloads (the smoke test's sizes)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload and seed when "
                             "running all four")
    parser.add_argument("--out", type=Path, default=OUT / "results.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        parser.exit(2, f"{ROOT / 'src' / 'repro'}: the program is not here\n")

    # Everything a run writes — pass directories, compiler temporaries —
    # stays under bench/out.
    OUT.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)
    tempfile.tempdir = None

    if args.workload is None:
        return 0 if run_all(args.repeats, args.seed, args.seconds,
                            args.out) else 1
    if len(args.seed) != 1:
        parser.error("--workload takes one --seed")
    require_compiled_kernel()
    result = run_workload(args.workload, args.seed[0], args.seconds,
                          bool(args.trace), args.quick)
    for problem in result.pop("problems"):
        print(problem)
    print(f"box ran at {result.pop('speed_share'):.3f} of its full speed")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

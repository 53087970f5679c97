"""A clock that counts seconds of work at the box's full speed.

The recording box is a 2-vCPU virtual machine whose speed wanders with its
host: for tens of minutes at a time the same single-threaded run takes up
to 1.45 × as long (in bursts of 0.2–20 ms the interpreter runs ≈ 1.6 ×
slower), and the raw ``run_s`` medians of two ten-run sets of one commit
differed by 36–47 %.  No regression bound survives that, so the benchmark's
times are not raw wall-clock seconds: while it measures, a timer interrupts
the run every :data:`INTERVAL` seconds to time a fixed piece of interpreter
work (the *probe*), and the fastest probe of the run is taken as full
speed.  The share of full speed at each probe, integrated over time, turns
any ``perf_counter`` interval into *work seconds* — what the interval would
have lasted on the undisturbed box — and the probes' own time counts as no
work.  The probe runs none of the program's code, so a faster or slower
program shows in full.  README.md has the measurements behind this.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List, Sequence

import numpy as np

#: Seconds between probes; one probe is ≈ 0.12 ms, so probing costs ≈ 0.5 %.
INTERVAL = 0.025

_PROBE_LOOPS = 3000


class WorkClock:
    """Probe the box's speed for the ``with`` body; then convert times."""

    def __init__(self) -> None:
        self._began: List[float] = []
        self._took: List[float] = []
        self._probing = False

    def _probe(self, *_signal_args) -> None:
        if self._probing:  # a tick that fell due while a probe was running
            return
        self._probing = True
        began = perf_counter()
        acc = 0
        for i in range(_PROBE_LOOPS):
            acc += i % 7
        self._took.append(perf_counter() - began)
        self._began.append(began)
        self._probing = False

    def __enter__(self) -> "WorkClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._probe()
        signal.signal(signal.SIGALRM, self._previous)

    def work_seconds(self, times: Sequence[float]) -> np.ndarray:
        """Work done by each ``perf_counter`` reading in ``times``.

        Readings must lie inside the ``with`` body, which has ended.
        Between two probes work accrues at the mean of their speed
        shares; during a probe none does.
        """
        began, took = np.array(self._began), np.array(self._took)
        speed = took.min() / took
        between = began[1:] - (began[:-1] + took[:-1])
        work = np.concatenate(
            ([0.0], np.cumsum(between * (speed[:-1] + speed[1:]) / 2.0)))
        knots = np.column_stack((began, began + took)).ravel()
        return np.interp(times, knots, np.repeat(work, 2))

    def speed_share(self) -> float:
        """Work seconds ÷ wall seconds over the whole ``with`` body."""
        first, last = self._began[0], self._began[-1]
        done = self.work_seconds([first, last])
        return float(done[1] - done[0]) / (last - first)

"""Cache-aided path finding (paper Sec. VI-B).

* :class:`ShortestPathCache` — the accounting of the paper's cache of
  conflict-oblivious shortest paths to goals within distance ``L``.  The
  paths need no store: the goal's exact field, which the search reads
  anyway, descends along one (:mod:`repro.pathfinding.free_flow`).  The
  cache keeps which ``(source, goal)`` pairs were asked for and their
  lengths, so its hits, misses and Fig. 12 footprint are those of the
  paper's memo filled on first use.

* :func:`follow_with_waits` — follow a spatial path, *waiting in place*
  whenever the next step would conflict (Sec. VI-B: "let the robot wait
  till there is no conflict to move next steps along the shortest
  path").  EATP's finisher (at the default caps) and the paper-scale
  rescue walk the descent this way; the native ``run`` and ``tier0_leg``
  carry the same walk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..types import Cell, Tick
from .reservation import ReservationTable


class ShortestPathCache:
    """Accounting for the shortest paths to nearby (≤ L) goal cells.

    Keeps ``(source, goal) → cells on the path`` (the distance plus one)
    and charges a path 4 bytes a cell — what two ``int16`` a cell would
    hold — plus 150 bytes an entry.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold
        self._paths: Dict[Tuple[Cell, Cell], int] = {}
        self._cells = 0
        self.hits = 0
        self.misses = 0

    def __setstate__(self, state) -> None:
        # Checkpoints written while the cache held packed path blobs
        # (4 bytes a cell) carry the grid, a field-cache slot and the
        # byte total; the pairs and the counts are what survives.
        state.pop("_grid", None)
        state.pop("_fields", None)
        if "_blob_bytes" in state:
            state["_cells"] = state.pop("_blob_bytes") // 4
            state["_paths"] = {pair: len(blob) // 4
                               for pair, blob in state["_paths"].items()}
        self.__dict__.update(state)

    def record(self, source: Cell, goal: Cell, cells: int) -> None:
        """Count a request for the ``cells``-cell path ``source → goal``."""
        key = (source, goal)
        if key in self._paths:
            self.hits += 1
            return
        self.misses += 1
        self._paths[key] = cells
        self._cells += cells

    def record_starts(self, goal: Cell, field, starts) -> None:
        """:meth:`record` each finisher walk from ``starts`` to ``goal``."""
        for cell in starts:
            self.record(cell, goal, field(cell) + 1)

    def __len__(self) -> int:
        return len(self._paths)

    def memory_bytes(self) -> int:
        """Approximate footprint (for the MC metric); O(1)."""
        return 64 + 150 * len(self._paths) + 4 * self._cells

    def live_counts(self) -> Dict[str, int]:
        """Live-state counters for the soak harness's flatness series."""
        return {"entries": len(self._paths),
                "blob_bytes": 4 * self._cells,
                "memory_bytes": self.memory_bytes()}


def follow_with_waits(reservation: ReservationTable, cells: Tuple[Cell, ...],
                      start_time: Tick,
                      max_wait_per_step: int = 64,
                      max_total_wait: Optional[int] = None
                      ) -> Optional[List[Tuple[int, int, int]]]:
    """Walk ``cells`` starting at ``start_time``, waiting out conflicts.

    Returns the timed steps (including the initial ``(start_time, *cells[0])``)
    or ``None`` when the tail cannot be derived cheaply — some step would
    require waiting longer than ``max_wait_per_step`` ticks, the waits
    accumulated across the whole tail would exceed ``max_total_wait``
    (default: ``max_wait_per_step``), or the waiting cell itself gets
    reserved.  The caller then falls back to plain spatiotemporal A*.

    The total-wait cap is the dense-traffic livelock guard: on a congested
    floor every step of the path can individually stay under the
    per-step cap while the tail as a whole degenerates into hundreds of
    ticks of waiting — a "path" that parks the robot on a contested cell
    for ages, invites further conflicts, and starves the very search the
    cache was meant to shortcut.  Past the cap the tail is not a shortcut
    any more, so the walk declines and the search (or its fallback
    chain) decides.
    """
    if max_total_wait is None:
        max_total_wait = max_wait_per_step
    t = start_time
    steps: List[Tuple[int, int, int]] = [(t, cells[0][0], cells[0][1])]
    current = cells[0]
    total_waited = 0
    for nxt in cells[1:]:
        waited = 0
        while not reservation.move_allowed(t, current, nxt):
            if waited >= max_wait_per_step or total_waited >= max_total_wait:
                return None
            if not reservation.is_free(t + 1, current):
                # Cannot even hold position: bail out to full search.
                return None
            t += 1
            waited += 1
            total_waited += 1
            steps.append((t, current[0], current[1]))
        t += 1
        steps.append((t, nxt[0], nxt[1]))
        current = nxt
    return steps

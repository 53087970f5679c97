"""Cache-aided path finding (paper Sec. VI-B).

Two pieces:

* :class:`ShortestPathCache` — memoised conflict-*oblivious* shortest paths
  for goals within Manhattan distance ``L``.  The paper initialises "all
  shortest paths with length ≤ L"; materialising every pair eagerly would
  dwarf the structures the CDT saves, so we memoise on first use, which is
  behaviourally identical (every hit after the first is O(path length)) and
  is reported in the memory metric like any other structure.

* :func:`make_wait_finisher` — the policy that turns a cached spatial path
  into a conflict-free tail: follow the cached cells, *waiting in place*
  whenever the next step would conflict, until the robot reaches the goal
  (Sec. VI-B: "let the robot wait till there is no conflict to move next
  steps along the shortest path").
"""

from __future__ import annotations

import array

from typing import Dict, List, Optional, Tuple

from ..errors import PathNotFoundError
from ..types import Cell, Tick, manhattan
from ..warehouse.grid import Grid
from .astar import shortest_path
from .reservation import ReservationTable


class ShortestPathCache:
    """Memoised spatial shortest paths for nearby (≤ L) goal cells.

    Paths are stored packed — two ``int16`` per cell in a ``bytes``
    blob — so a cached path costs ~4 bytes per cell instead of a Python
    tuple per cell.  Decoding on lookup is a single ``array`` scan,
    negligible next to the A* search the cache replaces.
    """

    #: Class-level default so checkpoints pickled before the field
    #: oracle existed restore cleanly (the planner re-attaches).
    _fields = None

    def __init__(self, grid: Grid, threshold: int) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self._grid = grid
        self.threshold = threshold
        self._paths: Dict[Tuple[Cell, Cell], bytes] = {}
        self._blob_bytes = 0
        self.hits = 0
        self.misses = 0
        self._fields = None

    def attach_fields(self, heuristics) -> None:
        """Let cached BFS fields answer unreachability in O(1).

        ``heuristics`` is the owning planner's
        :class:`~repro.pathfinding.heuristics.HeuristicFieldCache`.  A
        miss whose goal already has a memoised eager (int32-buffer)
        field — :meth:`peek` never floods one — reads
        ``flat[source]`` instead of running the spatial A* flood that
        :func:`~repro.pathfinding.astar.shortest_path` performs before
        concluding "disconnected".  Reachable pairs still take the
        identical search, so cached paths are bit-identical with or
        without the oracle.
        """
        self._fields = heuristics

    def __getstate__(self):
        # The field cache is the owning planner's: it is rebuilt from the
        # grid on restore rather than shipped, and the planner re-attaches.
        state = self.__dict__.copy()
        state["_fields"] = None
        return state

    def _known_unreachable(self, source: Cell, goal: Cell) -> bool:
        if self._fields is None:
            return False
        field = self._fields.peek(goal)
        if field is None:
            return False
        flat = field.flat
        if not isinstance(flat, array.array):
            # Lazy Manhattan flats carry no reachability information.
            return False
        return flat[source[0] * self._grid.height
                    + source[1]] > self._grid.n_cells

    @staticmethod
    def _pack(cells) -> bytes:
        flat = array.array("h")
        for x, y in cells:
            flat.append(x)
            flat.append(y)
        return flat.tobytes()

    @staticmethod
    def _unpack(blob: bytes) -> Tuple[Cell, ...]:
        flat = array.array("h")
        flat.frombytes(blob)
        return tuple((flat[i], flat[i + 1]) for i in range(0, len(flat), 2))

    def lookup(self, source: Cell, goal: Cell) -> Optional[Tuple[Cell, ...]]:
        """Cached shortest cell sequence, or None if beyond the threshold."""
        if manhattan(source, goal) > self.threshold:
            return None
        key = (source, goal)
        cached = self._paths.get(key)
        if cached is not None:
            self.hits += 1
            return self._unpack(cached)
        self.misses += 1
        if self._known_unreachable(source, goal):
            # The goal's exact BFS field already proves disconnection;
            # skip the A* flood that would rediscover it the hard way.
            raise PathNotFoundError(source, goal, "disconnected grid")
        cells = tuple(shortest_path(self._grid, source, goal))
        blob = self._pack(cells)
        self._paths[key] = blob
        self._blob_bytes += len(blob)
        return cells

    def __len__(self) -> int:
        return len(self._paths)

    def memory_bytes(self) -> int:
        """Approximate footprint (for the MC metric).

        Blob bytes are tracked incrementally at insertion, so the value —
        identical to summing the stored blobs — is O(1) per call; the
        simulation engine charges it on every processed event.
        """
        return 64 + 150 * len(self._paths) + self._blob_bytes

    def live_counts(self) -> Dict[str, int]:
        """Live-state counters for the soak harness's flatness series."""
        return {"entries": len(self._paths),
                "blob_bytes": self._blob_bytes,
                "memory_bytes": self.memory_bytes()}

    def recount(self) -> Dict[str, int]:
        """Recompute :meth:`live_counts` by walking the blobs (debug)."""
        blob_bytes = sum(len(blob) for blob in self._paths.values())
        return {"entries": len(self._paths),
                "blob_bytes": blob_bytes,
                "memory_bytes": 64 + 150 * len(self._paths) + blob_bytes}


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
    floor every step of the cached path can individually stay under the
    per-step cap while the tail as a whole degenerates into hundreds of
    ticks of waiting — a "path" that parks the robot on a contested cell
    for ages, invites further conflicts, and starves the very search the
    cache was meant to shortcut.  Past the cap the tail is not a shortcut
    any more, so the finisher declines and the search (or its fallback
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


def make_wait_finisher(cache: ShortestPathCache, goal: Cell,
                       reservation: ReservationTable,
                       max_wait_per_step: int = 64,
                       max_total_wait: Optional[int] = None):
    """Build the Sec. VI-B finisher hook for one spatiotemporal search.

    The returned callable matches the ``finisher(cell, t)`` contract of
    :func:`~repro.pathfinding.st_astar.find_path`: once A* pops a node
    within the cache threshold of ``goal``, extract the cached shortest
    path and derive the conflict-free tail by waiting where needed.
    """

    def finisher(cell: Cell, t: Tick):
        cells = cache.lookup(cell, goal)
        if cells is None:
            return None
        return follow_with_waits(reservation, cells, t, max_wait_per_step,
                                 max_total_wait)

    return finisher

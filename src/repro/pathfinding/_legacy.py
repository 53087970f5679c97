"""Frozen seed implementations of the search core and reservations.

These are verbatim copies of the tuple-based spatiotemporal A* and the
pre-bucketing reservation structures as they stood before the
packed-integer rewrite.  They exist for equivalence testing only:
``tests/test_packed_equivalence.py`` asserts the packed core returns paths
of identical length (bit-identical steps on open floors) and that both
reservation structures answer every probe the same way.

Do not use them anywhere else, and do not "fix" them: their value is
staying exactly what the seed shipped.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import PathNotFoundError
from ..types import Cell, Tick
from ..warehouse.grid import Grid
from .heuristics import Heuristic, manhattan_heuristic
from .paths import Path
from .st_astar import (SEARCH_BUDGET, SEARCH_COMPLETE, SEARCH_EXHAUSTED,
                       SearchOutcome, SearchStats)


def legacy_find_path(grid: Grid, reservation, source: Cell,
                     goal: Cell, start_time: Tick,
                     heuristic: Optional[Heuristic] = None,
                     max_expansions: int = 200_000,
                     finisher=None,
                     finisher_trigger: int = 0,
                     stats: Optional[SearchStats] = None) -> Path:
    """The seed's tuple-keyed spatiotemporal A* (see module docstring)."""
    grid.require_passable(source)
    grid.require_passable(goal)
    h = heuristic if heuristic is not None else manhattan_heuristic(goal)
    if stats is None:
        stats = SearchStats()

    if source == goal:
        return Path(((start_time, source[0], source[1]),))

    tie = count()
    start = (source, start_time)
    open_heap: List[Tuple[int, int, Tuple[Cell, Tick]]] = [
        (h(source), next(tie), start)]
    g_score: Dict[Tuple[Cell, Tick], int] = {start: 0}
    parent: Dict[Tuple[Cell, Tick], Tuple[Cell, Tick]] = {}
    closed = set()

    while open_heap:
        stats.peak_open = max(stats.peak_open, len(open_heap))
        __, __, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        closed.add(node)
        cell, t = node
        stats.expansions += 1
        if stats.expansions > max_expansions:
            raise PathNotFoundError(
                source, goal, f"search budget {max_expansions} exhausted")

        if cell == goal:
            return _legacy_reconstruct(parent, node, start_time)

        if finisher is not None and 0 < h(cell) <= finisher_trigger:
            tail = finisher(cell, t)
            if tail is not None:
                stats.cache_finished = True
                head = _legacy_reconstruct(parent, node, start_time)
                return head.concat(Path(tuple(tail)))

        g_next = g_score[node] + 1
        for nxt in _legacy_successors(grid, cell):
            if not reservation.move_allowed(t, cell, nxt):
                continue
            nxt_node = (nxt, t + 1)
            if nxt_node in closed:
                continue
            best = g_score.get(nxt_node)
            if best is None or g_next < best:
                g_score[nxt_node] = g_next
                parent[nxt_node] = node
                stats.generated += 1
                heapq.heappush(open_heap,
                               (g_next + h(nxt), next(tie), nxt_node))
    raise PathNotFoundError(source, goal, "open set exhausted")


def _legacy_successors(grid: Grid, cell: Cell):
    yield cell
    yield from grid.neighbours(cell)


def _legacy_reconstruct(parent: Dict, node: Tuple[Cell, Tick],
                        start_time: Tick) -> Path:
    steps = []
    while True:
        (x, y), t = node
        steps.append((t, x, y))
        if node not in parent:
            break
        node = parent[node]
    steps.reverse()
    assert steps[0][0] == start_time
    return Path(tuple(steps))


class _LegacyEdgeMixin:
    """The seed's flat-set edge bookkeeping (rebuilt wholesale on purge)."""

    def __init__(self) -> None:
        self._edges: Set[Tuple[Tick, Cell, Cell]] = set()

    def _edge_free(self, t: Tick, source: Cell, target: Cell) -> bool:
        return (t, target, source) not in self._edges

    def _reserve_edges(self, path: Path) -> None:
        steps = path.steps
        for (t0, x0, y0), (__, x1, y1) in zip(steps, steps[1:]):
            if (x0, y0) != (x1, y1):
                self._edges.add((t0, (x0, y0), (x1, y1)))

    def _purge_edges(self, t: Tick) -> None:
        self._edges = {edge for edge in self._edges if edge[0] >= t}

    def _edges_memory(self) -> int:
        return 64 + 100 * len(self._edges)


class LegacyConflictDetectionTable(_LegacyEdgeMixin):
    """The seed's per-cell timestamp-set CDT (O(live cells) purge)."""

    def __init__(self) -> None:
        _LegacyEdgeMixin.__init__(self)
        self._cells: Dict[Cell, Set[Tick]] = {}
        self._floor: Tick = 0

    def is_free(self, t: Tick, cell: Cell) -> bool:
        if t < self._floor:
            return True
        times = self._cells.get(cell)
        return times is None or t not in times

    def edge_free(self, t: Tick, source: Cell, target: Cell) -> bool:
        return self._edge_free(t, source, target)

    def reserve_path(self, path: Path) -> None:
        for (t, x, y) in path:
            if t >= self._floor:
                self._cells.setdefault((x, y), set()).add(t)
        self._reserve_edges(path)

    def purge_before(self, t: Tick) -> None:
        self._floor = max(self._floor, t)
        empty = []
        for cell, times in self._cells.items():
            stale = [s for s in times if s < t]
            for s in stale:
                times.discard(s)
            if not times:
                empty.append(cell)
        for cell in empty:
            del self._cells[cell]
        self._purge_edges(t)

    def memory_bytes(self) -> int:
        entries = sum(len(times) for times in self._cells.values())
        return 64 + 100 * len(self._cells) + 32 * entries + self._edges_memory()

    def move_allowed(self, t: Tick, source: Cell, target: Cell) -> bool:
        if not self.is_free(t + 1, target):
            return False
        if source == target:
            return True
        return self.edge_free(t, source, target)

    @property
    def n_reservations(self) -> int:
        return sum(len(times) for times in self._cells.values())

    @property
    def n_cells_touched(self) -> int:
        return len(self._cells)


def seed_planner_patches():
    """``(target, attribute, replacement)`` triples for a seed planner stack.

    Applying these (``setattr`` or ``monkeypatch.setattr``) reverts the
    planner layer to the seed configuration end-to-end: the tuple-based
    search core with per-leg ``manhattan_heuristic`` closures as
    ``pipeline.search``, the name the chain's tier 1 calls; the
    pre-bucketing reservation structures; and no tier-0 fast path
    (:func:`tier0_off_patch`: every leg runs the seed search, and the
    legacy tables lack the packed probes the tier-0 audit needs).  The
    one non-seed piece is EATP's finisher, which walks the goal field's
    :func:`~repro.pathfinding.free_flow.descent` through
    :func:`~repro.pathfinding.cache.follow_with_waits` and returns the
    walks' starts in the outcome, which the chain records in the cache
    as it does the library's.  Used by the end-to-end equivalence tests.
    """
    from ..planners import base as base_mod
    from ..planners import eatp as eatp_mod
    from . import pipeline as pipeline_mod
    from .cache import follow_with_waits
    from .free_flow import descent

    def seed_search(grid, reservation, request, heuristic):
        """:func:`~repro.pathfinding.st_astar.search` over the seed core."""
        stats, starts = SearchStats(budget=request.max_expansions), []
        finisher = None
        if request.finisher_trigger > 0:
            def finisher(cell, t):
                starts.append(cell)
                return follow_with_waits(
                    reservation, descent(grid, heuristic.flat, cell).cells, t)
        try:
            path = legacy_find_path(
                grid, reservation, request.source, request.goal,
                request.start_time,
                heuristic=manhattan_heuristic(request.goal),
                max_expansions=request.max_expansions, finisher=finisher,
                finisher_trigger=request.finisher_trigger, stats=stats)
        except PathNotFoundError:
            status = (SEARCH_BUDGET if stats.budget_exhausted
                      else SEARCH_EXHAUSTED)
            return SearchOutcome(request, status, None, stats, starts)
        return SearchOutcome(request, SEARCH_COMPLETE, path, stats, starts)

    return [
        (pipeline_mod, "search", seed_search),
        (base_mod, "SpatiotemporalGraph", LegacySpatiotemporalGraph),
        (eatp_mod, "ConflictDetectionTable", LegacyConflictDetectionTable),
        tier0_off_patch(),
    ]


def tier0_off_patch():
    """``(target, attribute, replacement)`` that turns tier 0 off: every
    leg takes the python chain's full search (``pipeline.search``), under
    either switch.  Tier 0 is behaviour-neutral, so this is a test and
    ablation control, not a setting."""
    from . import pipeline as pipeline_mod

    return (pipeline_mod.FallbackChain, "plan_leg",
            lambda self, t, source, goal: self._reserved(self._searched_leg(
                t, source, goal, pipeline_mod.FASTPATH_OFF)))


class LegacySpatiotemporalGraph(_LegacyEdgeMixin):
    """The seed's dense time-expanded graph with flat-set edges."""

    def __init__(self, grid: Grid) -> None:
        _LegacyEdgeMixin.__init__(self)
        self._grid = grid
        self._layers: Dict[Tick, np.ndarray] = {}
        self._floor: Tick = 0

    def _layer(self, t: Tick) -> np.ndarray:
        layer = self._layers.get(t)
        if layer is None:
            high = max(self._layers, default=self._floor)
            for step in range(min(t, self._floor), max(t, high) + 1):
                if step >= self._floor and step not in self._layers:
                    self._layers[step] = np.zeros(
                        (self._grid.width, self._grid.height), dtype=np.uint8)
            layer = self._layers[t]
        return layer

    def is_free(self, t: Tick, cell: Cell) -> bool:
        if t < self._floor:
            return True
        layer = self._layers.get(t)
        if layer is None:
            return True
        return not bool(layer[cell])

    def edge_free(self, t: Tick, source: Cell, target: Cell) -> bool:
        return self._edge_free(t, source, target)

    def reserve_path(self, path: Path) -> None:
        for (t, x, y) in path:
            if t >= self._floor:
                self._layer(t)[x, y] = 1
        self._reserve_edges(path)

    def purge_before(self, t: Tick) -> None:
        self._floor = max(self._floor, t)
        for stale in [step for step in self._layers if step < t]:
            del self._layers[stale]
        self._purge_edges(t)

    def memory_bytes(self) -> int:
        layers = sum(layer.nbytes for layer in self._layers.values())
        return layers + self._edges_memory()

    def move_allowed(self, t: Tick, source: Cell, target: Cell) -> bool:
        if not self.is_free(t + 1, target):
            return False
        if source == target:
            return True
        return self.edge_free(t, source, target)

    @property
    def n_layers(self) -> int:
        return len(self._layers)

"""Spatiotemporal A* — conflict-free single-robot search (paper Sec. V-C).

Searches over ``(cell, t)`` states with five actions (four moves + wait)
against a :class:`~repro.pathfinding.reservation.ReservationTable`, so the
returned path conflicts with none of the previously planned ones.  This is
the prioritised-planning search that every planner in the paper (NTP, LEF,
ILP, ATP, EATP) uses for its path-finding step; only the reservation
structure and the cache-aided finisher differ between them.

The core runs entirely on **packed integers**: a state is ``t · (W·H) + x ·
H + y`` (one machine int instead of a nested ``((x, y), t)`` tuple), so
queue entries and parents are plain-int keyed, successor generation is
one indexed read of the grid's memoised adjacency rows, conflict probes are
set lookups of packed cell keys in the table's per-tick buckets, and
h-values are indexed field lookups.  A state's cost is its time layer, so
it enters the queue once and the parent map is the seen-set — no g-score
table, no closed set, no stale entries.  Expansion order, tie breaking,
paths and expansion counts are bit-identical to the tuple-based seed
implementation (kept in ``_legacy.py`` as the equivalence reference);
the states made and the open set's peak are at most the seed's.

The open set is ordered by ``(f, depth, tie)``; :func:`_search_heap`
states the rule and is its python implementation — the python switch's
core and the oracle of the cross-kernel suites.  The native kernel
(``_kernel/_stsearchmodule.c``, reached through :func:`_search_compiled`)
realises the same order as a bucket queue over a workspace its grid
keeps.  Both take the same inputs: one of the library's tables
(:class:`~repro.pathfinding.reservation.ReservationTable`) and the
default Manhattan field or a
:class:`~repro.pathfinding.heuristics.HeuristicField`, both consistent,
which the bucket queue needs; anything else is refused with
``TypeError``.  So under the compiled switch every search runs native,
and under the python switch every one reads the table's buckets.  No
search state outlives a call; the native kernel reuses only its grid's
workspace memory.

Both cores make each successor when the cursor reaches its f level, not
when its parent is expanded.  A pop on level L pushes only its
successors on L (the moves toward the goal).  Its wait and its other
moves go onto the list of the level they lie on, one list per level
above the cursor.  When the cursor first reaches a level, before any of
its states is popped, it pushes that level's list in order: pop order,
each parent's wait first and then its adjacency row.  The order argument
is one line: a state's level is its ``g + h``, fixed whoever reaches it,
and the cursor only moves up, so every level receives its states in the
order an eager expansion would push them and the same parent claims
each one.  The pops, paths, finisher starts and expansion counts are
the eager search's, and the states above the level a search ends on are
never made.

So every state a search makes lies on the cursor's level, and the
native kernel's seen-set is a stamp per cell.  The one-line argument:
on level L a state's layer is ``h0 + L − h(cell)``, so within a level
the cell names the state, and no state of a level the cursor has left
is made again.  Each cell holds the mark of the level that last made a
state on it; the mark is bumped at the source and at each level entry,
and every stamp is cleared when the mark wraps.  The same identity
gives a pop its h (``h0 + L − g``) without reading the field.

:func:`search` is the one entry: a :class:`SearchRequest` in, a
:class:`SearchOutcome` out.  A search that exhausts its budget or its
open set *returns* an outcome carrying the failure status and the full
:class:`SearchStats` — it never raises — so callers can fall back (wait
in place) instead of dying mid-run; a caller that cannot fall back
raises :meth:`SearchOutcome.error`, a
:class:`~repro.errors.PathNotFoundError` with the stats attached.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, List, Optional, Sequence

from ..config import SEARCH_KERNEL_CHOICES, search_kernel_choice
from ..errors import ConfigurationError, PathNotFoundError
from ..types import Cell, Tick
from ..warehouse.grid import Grid
from . import _kernel
from ._kernel import load_compiled as _load_compiled
from .cache import follow_with_waits
from .free_flow import descent
from .heuristics import HeuristicField, _LazyManhattanFlat
from .paths import Path, packed_path
from .reservation import ReservationTable, require_table

@dataclass
class SearchStats:
    """Per-search counters surfaced for efficiency experiments.

    Attributes
    ----------
    expansions:
        Nodes popped from the open set.
    generated:
        States the search made and pushed onto the open set.  A
        successor is made when the cursor reaches its f level, so the
        states above the level a search ends on are not counted.
    cache_finished:
        True when the cache-aided finisher walked the tail of the path
        (EATP only); lets the L-ablation report the cache hit rate.
    peak_open:
        Largest size the open set reached before a pop.  The open set
        holds the cursor's f level only, so this is the widest level the
        search popped from.
    budget:
        The expansion budget that was in force (diagnostic; set by the
        packed core, left 0 by the frozen seed core).
    """

    expansions: int = 0
    generated: int = 0
    cache_finished: bool = False
    peak_open: int = 0
    budget: int = 0

    @property
    def budget_exhausted(self) -> bool:
        """Whether the search stopped on its budget (:data:`SEARCH_BUDGET`).

        The pop that breaks the budget is counted, so only such a search
        reports more expansions than its budget.
        """
        return self.expansions > self.budget > 0


#: Outcome statuses of one spatiotemporal search.
SEARCH_COMPLETE = "complete"      #: goal reached; path attached
SEARCH_BUDGET = "budget"          #: expansion budget exhausted
SEARCH_EXHAUSTED = "exhausted"    #: open set died (start is boxed in)


@dataclass(frozen=True)
class SearchRequest:
    """One bounded path-finding problem, as plain data.

    Attributes
    ----------
    source, goal:
        Spatial endpoints.
    start_time:
        Tick at which the robot sits on ``source``.
    max_expansions:
        Abort threshold; exceeding it yields a :data:`SEARCH_BUDGET`
        outcome rather than livelocking.
    finisher_trigger:
        The L of the cache-aided finisher (Sec. VI-B); ``0`` disables it.
        The first walk down the heuristic from a popped node with
        ``0 < h <= L`` that arrives (waiting out conflicts, at
        ``follow_with_waits``' default caps) ends the search.
    """

    source: Cell
    goal: Cell
    start_time: Tick
    max_expansions: int = 200_000
    finisher_trigger: int = 0


@dataclass
class SearchOutcome:
    """What one search produced — success or a *recoverable* failure.

    Attributes
    ----------
    request:
        The request this outcome answers.
    status:
        :data:`SEARCH_COMPLETE`, :data:`SEARCH_BUDGET` or
        :data:`SEARCH_EXHAUSTED`.
    path:
        The timed path (only for :data:`SEARCH_COMPLETE`).
    stats:
        The search's counters, present on every outcome — failures keep
        their diagnostics.
    finisher_starts:
        The cells the finisher's walks started from, in pop order; all
        but a finishing last one (``stats.cache_finished``) declined.
    """

    request: SearchRequest
    status: str
    path: Optional[Path]
    stats: SearchStats
    finisher_starts: Sequence[Cell] = ()

    @property
    def ok(self) -> bool:
        return self.status == SEARCH_COMPLETE

    def error(self) -> PathNotFoundError:
        """This failure as a :class:`~repro.errors.PathNotFoundError`
        carrying the stats, for a caller that cannot fall back."""
        reason = ("search budget {} exhausted".format(self.stats.budget)
                  if self.status == SEARCH_BUDGET else "open set exhausted")
        return PathNotFoundError(self.request.source, self.request.goal,
                                 reason, stats=self.stats)


# -- kernel selection ---------------------------------------------------------

def set_search_kernel(choice: str) -> str:
    """Select the kernel of every compiled plane; returns its name.

    ``choice`` follows the ``REPRO_KERNEL`` contract (see
    :func:`repro.config.search_kernel_choice`): ``auto`` probes for the
    compiled extension and falls back to pure python silently;
    ``compiled`` raises :class:`~repro.errors.ConfigurationError` when the
    extension is absent (an explicit demand must not degrade silently);
    ``python`` forces the pure-python bodies.  The answer goes to
    :data:`repro.pathfinding._kernel.active`, the one place every plane
    reads it.  Tests and benches call this directly to pin a kernel;
    normal runs inherit the environment default resolved at import.
    """
    if choice not in SEARCH_KERNEL_CHOICES:
        raise ConfigurationError(
            f"search kernel must be one of {SEARCH_KERNEL_CHOICES}, "
            f"got {choice!r}")
    module = None if choice == "python" else _load_compiled(refresh=True)
    if choice == "compiled" and module is None:
        raise ConfigurationError(
            "REPRO_KERNEL=compiled but the native kernel is not built; "
            "run scripts/build_kernel.py (or python setup.py build_ext "
            "--inplace in src/repro/pathfinding/_kernel) or use "
            "REPRO_KERNEL=auto|python")
    _kernel.active = module
    return search_kernel_name()


def search_kernel_name() -> str:
    """The selected kernel: ``"compiled"`` or ``"python"``."""
    return "python" if _kernel.active is None else "compiled"


#: Import-probe at module load, honouring the environment override.
set_search_kernel(search_kernel_choice())


def search(grid: Grid, reservation: ReservationTable,
           request: SearchRequest,
           heuristic: Optional[HeuristicField] = None,
           stats: Optional[SearchStats] = None) -> SearchOutcome:
    """Run one spatiotemporal search to a :class:`SearchOutcome`.

    Never raises for exhaustion: a failed search returns an outcome whose
    ``status`` names the failure and whose ``stats`` carry the counters.
    Both kernels produce bit-identical expansions, paths and statistics.
    A ``reservation`` that is not a library table, or a ``heuristic``
    that is neither ``None`` (Manhattan) nor a
    :class:`~repro.pathfinding.heuristics.HeuristicField` of this grid,
    is refused (``TypeError`` / ``ValueError``).
    """
    require_table(reservation)
    source, goal = request.source, request.goal
    start_time = request.start_time
    grid.require_passable(source)
    grid.require_passable(goal)
    hfield = _heuristic_field(grid, goal, heuristic)
    if stats is None:
        stats = SearchStats()
    stats.budget = request.max_expansions

    if source == goal:
        return SearchOutcome(request, SEARCH_COMPLETE,
                             Path(((start_time, source[0], source[1]),)),
                             stats)

    deep = grid.paper_scale
    store = reservation.kernel_probe_spec()
    if store is not None:
        return _search_compiled(grid, store, request, hfield, deep, stats)
    return _search_heap(grid, reservation, request, hfield, deep, stats)


def _search_compiled(grid: Grid, store, request: SearchRequest, hfield,
                     deep: bool, stats: SearchStats) -> SearchOutcome:
    """Hand one search to the native kernel.

    ``store`` is the table's ``kernel_probe_spec()``; ``deep`` selects
    the open-set order exactly as in :func:`_search_heap`.  Mode 1
    computes Manhattan distance natively from the goal coordinates (the
    lazy field, whose ``__getitem__`` the hot loop must not call back
    into); mode 2 reads the eager BFS fields' ``array('i')`` through the
    buffer protocol, zero-copy.  The kernel returns raw counters; this
    wrapper folds them into ``stats`` the way the python core's
    ``finally`` block does, and wraps the leg's key buffer — checked by
    the kernel against the path rule before it is returned — without
    unpacking it.
    """
    module = _kernel.active
    source, goal = request.source, request.goal
    height = grid.height
    if isinstance(hfield, _LazyManhattanFlat):
        h_mode, h_arg = 1, (hfield._gx, hfield._gy)
    else:
        h_mode, h_arg = 2, hfield

    status, keys, tried, expansions, generated, peak_open = module.run(
        grid.kernel_capsule(module), store, h_mode, h_arg,
        source[0] * height + source[1],
        goal[0] * height + goal[1], request.start_time,
        request.max_expansions, request.finisher_trigger,
        1 if deep else 0, stats.expansions, stats.peak_open)

    stats.expansions = expansions
    stats.generated += generated
    stats.peak_open = peak_open
    starts = [divmod(ci, height) for ci in tried] if tried else ()
    if keys is None:
        return SearchOutcome(
            request, SEARCH_BUDGET if status == 1 else SEARCH_EXHAUSTED,
            None, stats, starts)
    if status == 4:
        stats.cache_finished = True
    return SearchOutcome(request, SEARCH_COMPLETE,
                         packed_path(request.start_time, keys), stats, starts)


def _search_heap(grid: Grid, reservation: ReservationTable,
                 request: SearchRequest, hfield, deep: bool,
                 stats: SearchStats) -> SearchOutcome:
    """The python core: ``heapq`` open set, one ``parent`` dict.

    Answers every search under the python switch, reading the table's
    per-tick buckets, and is what the cross-kernel suites hold the native
    kernel to.

    **State record.**  A state is ``t * n_cells + cell`` and every action
    costs one tick, so its ``g`` is its layer, ``t - start_time``: it is
    reached at one cost only and pushed once, and ``parent`` — state to
    the state it was first reached from — doubles as the seen-set (the
    native kernel's ``{key, parent}`` records).

    **Tie rule.**  The open set is ordered by ``(f, depth, tie)`` with
    ``tie`` the push counter.  Below the paper-scale gate ``depth`` is
    pinned to 0, so equal-f entries pop FIFO — the seed's order exactly.
    With ``deep`` set (floors at or above the paper-scale gate)
    ``depth = -g`` breaks f-ties toward the *deepest* node instead: unit
    costs make every f-optimal staircase equally long, so FIFO order
    breadth-explores the whole O(d²) plateau between source and goal,
    while prefer-deeper dives down a single staircase and backtracks only
    where a reservation blocks it — near-linear expansions on open floors,
    with the returned path still optimal (tie-breaking never affects A*
    admissibility).  The 541×302 floor puts d in the hundreds, exactly
    where the plateau is the "too slow to execute" wall.

    **Level by level.**  The heap holds the cursor's f level only, as
    ``(depth, tie, state)``: a pop pushes just its successors on its own
    level (the moves toward the goal) and appends the others to
    ``later``, by the level each lies on; when the heap runs dry the
    cursor enters the next level and pushes its list in order (see the
    module docstring for why the pops are an eager search's).  Unlike
    the kernel, it probes a successor at its parent's pop, where a probe
    is one set lookup; the store holds still during a search, so both
    make the same states.
    """
    source, goal = request.source, request.goal
    start_time = request.start_time
    height = grid.height
    n_cells = grid.width * height
    adjacency = grid.adjacency
    cell_keys = grid.cell_keys
    max_expansions = request.max_expansions
    finisher_trigger = request.finisher_trigger
    starts: List[Cell] = []

    vertex_buckets, edge_buckets = reservation.packed_buckets()
    push = heapq.heappush
    pop = heapq.heappop

    source_ci = source[0] * height + source[1]
    goal_ci = goal[0] * height + goal[1]
    start_state = start_time * n_cells + source_ci

    open_heap = [(0, 0, start_state)]
    tie = 1
    parent: Dict[int, int] = {}
    # The successors above the cursor, by level: parent, successor,
    # parent, successor..., in the order an eager search would push them.
    later: DefaultDict[int, List[int]] = defaultdict(list)
    level = 0             # the cursor: f minus the source's f

    expansions = stats.expansions
    generated = 0
    peak_open = stats.peak_open

    try:
        while True:
            while not open_heap:
                # The cursor's level is spent: enter the next, pushing
                # the successors waiting for it.
                if not later:
                    return SearchOutcome(request, SEARCH_EXHAUSTED, None,
                                         stats, starts)
                level += 1
                pairs = iter(later.pop(level, ()))
                for state, nxt_state in zip(pairs, pairs):
                    if nxt_state not in parent:
                        parent[nxt_state] = state
                        depth = (start_time - nxt_state // n_cells if deep
                                 else 0)
                        push(open_heap, (depth, tie, nxt_state))
                        tie += 1
                generated += len(open_heap)

            if len(open_heap) > peak_open:
                peak_open = len(open_heap)
            __, __, state = pop(open_heap)
            expansions += 1
            if expansions > max_expansions:
                return SearchOutcome(request, SEARCH_BUDGET, None, stats,
                                     starts)
            t, ci = divmod(state, n_cells)

            if ci == goal_ci:
                return SearchOutcome(
                    request, SEARCH_COMPLETE,
                    _reconstruct(parent, state, n_cells, height, start_time),
                    stats, starts)

            h = hfield[ci]
            if finisher_trigger and 0 < h <= finisher_trigger:
                # The finisher: from here, the descent walked with waits.
                starts.append(divmod(ci, height))
                chain = descent(grid, hfield, starts[-1])
                tail = chain and follow_with_waits(reservation, chain.cells, t)
                if tail is not None:
                    stats.cache_finished = True
                    return SearchOutcome(
                        request, SEARCH_COMPLETE,
                        _reconstruct(parent, state, n_cells, height,
                                     start_time, tail), stats, starts)

            t1 = t + 1
            depth = start_time - t1 if deep else 0
            next_base = t1 * n_cells
            source_key = cell_keys[ci]

            # Successors, wait first then the adjacency row, reading this
            # tick's vertex and edge buckets once: the moves toward the
            # goal are pushed now, the rest wait on their level's list.
            # A move out of this cell is a swap only if a partner arrives
            # here at t1 (the table's contract): edges are looked up only
            # where the wait was refused.
            occupied = vertex_buckets.get(t1)
            swaps = None
            nxt_state = next_base + ci
            if occupied is not None and source_key in occupied:
                swaps = edge_buckets.get(t)
            elif nxt_state not in parent:
                waiting = later[level + 1]
                waiting.append(state)
                waiting.append(nxt_state)
            for nci, nkey in adjacency[ci]:
                if occupied is not None and nkey in occupied:
                    continue
                if swaps is not None and ((nkey << 32) | source_key) in swaps:
                    continue
                nxt_state = next_base + nci
                if nxt_state in parent:
                    continue
                up = hfield[nci] + 1 - h
                if up > 0:
                    waiting = later[level + up]
                    waiting.append(state)
                    waiting.append(nxt_state)
                elif up:
                    raise AssertionError("h drops by more than a step: "
                                         "heuristic field is not consistent")
                else:
                    parent[nxt_state] = state
                    generated += 1
                    push(open_heap, (depth, tie, nxt_state))
                    tie += 1
    finally:
        stats.expansions = expansions
        stats.generated += generated
        stats.peak_open = peak_open


def _heuristic_field(grid: Grid, goal: Cell,
                     heuristic: Optional[HeuristicField]):
    """Resolve ``heuristic`` into an h-field indexed by cell index."""
    if heuristic is None:
        return _LazyManhattanFlat(goal, grid.height, grid.n_cells)
    if not isinstance(heuristic, HeuristicField):
        raise TypeError("a search takes a HeuristicField or None (Manhattan), "
                        f"not {type(heuristic).__name__}")
    if heuristic._height != grid.height or len(heuristic.flat) != grid.n_cells:
        raise ValueError(
            "heuristic field was built for a different grid "
            f"({len(heuristic.flat)} cells, height {heuristic._height}) than "
            f"the one being searched ({grid.n_cells} cells, height "
            f"{grid.height})")
    return heuristic.flat


def _reconstruct(parent: Dict[int, int], state: int, n_cells: int,
                 height: int, start_time: Tick, tail=()) -> Path:
    steps: List = []
    while state is not None:
        t, ci = divmod(state, n_cells)
        x, y = divmod(ci, height)
        steps.append((t, x, y))
        state = parent.get(state)
    steps.reverse()
    assert steps[0][0] == start_time
    steps.extend(tail[1:])  # a finisher's walk, from ``state`` on
    return Path(steps)

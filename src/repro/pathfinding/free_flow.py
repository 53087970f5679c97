"""Tier-0 free-flow path extraction: greedy descent on exact h-fields.

The planning pipeline's dominant cost is the full spatiotemporal A\\*
(tier 1): even on a floor where a leg meets *no* conflict, A\\* guided by
an exact heuristic still pops every f-optimal state generated before the
goal — the whole shortest-path plateau between source and goal, which on
open floors is the source–goal bounding rectangle, O(d²) expansions for a
length-d leg.  But the exact cached
:class:`~repro.pathfinding.heuristics.HeuristicField` is a *gradient*: at
every cell with ``h > 0`` at least one passable neighbour has ``h - 1``
(the field is an exact BFS distance), so following the first such
neighbour walks a shortest path to the goal in O(d).

Crucially, picking the **first descending neighbour in adjacency order**
reproduces the search's tie-breaking exactly.  In the packed A\\* core,
ties among equal f break FIFO by generation order, and successors are
generated wait-first then along the grid's adjacency row.  On an empty
reservation table the f-optimal plateau is explored in BFS layer order;
by induction the i-th cell of the greedy descent is the *first* state
generated in layer i, hence the first expanded, hence the parent the
reconstruction follows.  The same induction survives any reservation
pattern that leaves the descent path itself conflict-free — removing
other states from the plateau can only move the descent states earlier.
So::

    descent conflict-free  ⇒  full ST-A* returns exactly the descent

which is what lets tier 0 answer without searching: extract the descent
in O(d), bulk-audit it against the reservation structures, and on any
hit fall through to the unchanged tier-1 search.  Behaviour is provably
identical either way; only the cycle count changes.  Extraction and
audit are one call, :meth:`FreeFlowPathCache.kernel_leg`, which answers
the same verdict tuple from the native ``tier0_leg`` (walk, audit and
wait-following rescue fused in C, the leg handed back as one packed
buffer) or from :meth:`~FreeFlowPathCache.packed`,
:meth:`~repro.pathfinding.reservation.ReservationTable.audit_chain` and
:func:`~repro.pathfinding.cache.follow_with_waits`.

:meth:`~FreeFlowPathCache.packed` is the specification: the generic
greedy walk, run fresh on every call over whichever field the goal has.
The native walk is pinned against it on both field kinds — on the lazy
Manhattan field it takes the closed form "all of x, then all of y", the
answer the generic walk gives there.  Nothing is memoised: a descent
depends only on the immutable grid and the goal's field, and the
planner's field cache already holds the expensive part.
"""

from __future__ import annotations

from array import array
from typing import Optional

from ..types import Cell
from ..warehouse.grid import Grid
from . import _kernel
from .cache import follow_with_waits
from .heuristics import HeuristicFieldCache, _LazyManhattanFlat
from .paths import Path, packed_path
from .reservation import PackedChain

class FreeFlowPathCache:
    """Free-flow (reservation-oblivious) shortest cell chains for tier 0.

    Parameters
    ----------
    grid:
        Spatial passability; supplies the adjacency rows whose order
        fixes the descent tie-breaking.
    heuristics:
        The owning planner's exact per-goal field cache; every descent
        reads (and, for a fresh goal, builds) the goal's field through it.
    """

    def __init__(self, grid: Grid, heuristics: HeuristicFieldCache) -> None:
        self._grid = grid
        self._heuristics = heuristics

    def packed(self, source: Cell, goal: Cell) -> Optional[PackedChain]:
        """The greedy-descent chain ``source → goal``, packed.

        At every cell the walk takes the *first* neighbour in adjacency
        order whose field value is one lower, so the chain is the path
        the full ST-A\\* returns on an empty reservation table.  The
        :class:`~repro.pathfinding.reservation.PackedChain` carries the
        cell tuple (both endpoints included) plus the packed keys
        ``audit_chain`` probes with; ``None`` when ``goal`` is spatially
        unreachable from ``source``.
        """
        grid = self._grid
        height = grid.height
        flat = self._heuristics.field(goal).flat
        ci = source[0] * height + source[1]
        h = flat[ci]
        if h > grid.n_cells:
            return None  # the field's unreachable marker
        adjacency = grid.adjacency
        cell_keys = grid.cell_keys
        cells = [source]
        keys = [cell_keys[ci]]
        append = cells.append
        while h:
            h -= 1
            for nci, nkey in adjacency[ci]:
                if flat[nci] == h:
                    ci = nci
                    keys.append(nkey)
                    break
            else:  # pragma: no cover — exact fields always descend
                return None
            append(divmod(ci, height))
        return PackedChain(tuple(cells), keys)

    def kernel_leg(self, reservation, t: int, source: Cell, goal: Cell,
                   finisher_factory, rescue_caps=(0, 0)):
        """The one tier-0 entry: greedy descent, bulk reservation audit
        and — on a hit, when ``rescue_caps`` allows — the wait-following
        rescue.

        Returns ``(verdict, path, finisher, trigger)`` from either
        kernel, for the chain's single verdict interpreter
        (:meth:`FallbackChain._free_flow_leg
        <repro.pathfinding.pipeline.FallbackChain._free_flow_leg>`):

        * 0 — ``goal`` unreachable; no path, and the finisher factory was
          never consulted;
        * 1 — the whole descent audited clean; ``path`` is the leg;
        * 2 — a finisher is in force and the head of the descent audited
          clean; ``path`` is that head, for the caller to invoke
          ``finisher(path.goal, path.end_time)``;
        * 3 — the audit hit a reservation and the rescue is off or
          declined; no path;
        * 4 — the audit hit a reservation and the rescue walked the
          descent with waits; ``path`` is the rescued leg.

        ``finisher, trigger`` are what ``finisher_factory(goal)``
        answered; ``rescue_caps`` is ``(wait per step, total wait)``
        for :func:`~repro.pathfinding.cache.follow_with_waits`, ``(0, 0)``
        turning the rescue off.  Paths are equal from either kernel —
        the compiled one wraps the kernel's key buffer as it came,
        the python pair packs its cells.

        The compiled ``tier0_leg`` serves the library's own tables
        (their native store) over the two field kinds and walks the
        descent itself.  Anything else — the switch off, a table whose
        ``kernel_probe_spec`` is ``None``, a foreign field — takes
        :meth:`packed` through ``audit_chain`` in the same order:
        reachability, finisher factory, head audit, rescue.  EATP's
        shortest-path cache depends on that order — consulting the
        factory or the finisher where the full search would not mutates
        the cache (and its memory metric) as no tier-0-off run would.
        """
        module = _kernel.active
        store = None if module is None else reservation.kernel_probe_spec()
        if store is None:
            return self._python_leg(reservation, t, source, goal,
                                    finisher_factory, rescue_caps)
        grid = self._grid
        height = grid.height
        flat = self._heuristics.field(goal).flat
        sci = source[0] * height + source[1]
        if isinstance(flat, _LazyManhattanFlat):
            h_mode, h_arg = 1, None
        elif isinstance(flat, array):
            # Same order as the python pair: an unreachable leg answers
            # before the finisher factory is ever consulted.
            if flat[sci] > grid.n_cells:
                return 0, None, None, 0
            h_mode, h_arg = 2, flat
        else:  # foreign field representation
            return self._python_leg(reservation, t, source, goal,
                                    finisher_factory, rescue_caps)
        finisher, trigger = finisher_factory(goal)
        verdict, keys = module.tier0_leg(
            grid.kernel_capsule(module), store, h_mode, h_arg, sci,
            goal[0] * height + goal[1], t,
            trigger if finisher is not None else 0, *rescue_caps)
        path = None if keys is None else packed_path(t, keys)
        return verdict, path, finisher, trigger

    def _python_leg(self, reservation, t: int, source: Cell, goal: Cell,
                    finisher_factory, rescue_caps):
        """:meth:`kernel_leg` over :meth:`packed`, ``audit_chain`` and
        ``follow_with_waits``."""
        chain = self.packed(source, goal)
        if chain is None:
            return 0, None, None, 0
        cells = chain.cells
        finisher, trigger = finisher_factory(goal)
        k = len(cells) - 1
        if finisher is not None and trigger > 0 and k > 0:
            j = k - trigger if k > trigger else 0
            if reservation.audit_chain(t, chain, j):
                return 2, Path.from_cells(cells[:j + 1], t), finisher, trigger
        elif reservation.audit_chain(t, chain, k):
            return 1, Path.from_cells(cells, t), finisher, trigger
        if rescue_caps[0]:
            steps = follow_with_waits(reservation, cells, t, *rescue_caps)
            if steps is not None:
                return 4, Path(steps), finisher, trigger
        return 3, None, finisher, trigger

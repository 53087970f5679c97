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
in O(d), bulk-audit it, and on any hit fall through to the unchanged
search; only the cycle count changes.  Under the python switch
:meth:`FreeFlowPathCache.kernel_leg` does both, with EATP's finisher
walk and the rescue, from :func:`descent`, ``audit_chain`` and
``follow_with_waits``; under the compiled one the kernel's ``leg`` runs
the same steps in C first.  :func:`descent` is the specification the
native walk is pinned against; nothing is memoised but the planner's
fields.
"""

from __future__ import annotations

from typing import Optional

from ..types import Cell
from ..warehouse.grid import Grid
from .cache import follow_with_waits
from .heuristics import HeuristicFieldCache
from .paths import Path
from .reservation import PackedChain, require_table


def descent(grid: Grid, flat, source: Cell) -> Optional[PackedChain]:
    """The chain ``source → goal`` taking, at every cell, the *first*
    neighbour in adjacency order one lower on ``flat``: on an exact field,
    the path ST-A\\* returns on an empty table.  Cells (both ends) plus
    the keys ``audit_chain`` probes; ``None`` where ``flat`` marks
    ``source`` unreachable (or, not exact, does not descend)."""
    height = grid.height
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
        else:
            return None
        append(divmod(ci, height))
    return PackedChain(tuple(cells), keys)


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
        """The greedy-descent chain ``source → goal`` on ``goal``'s
        exact field (:func:`descent`)."""
        return descent(self._grid, self._heuristics.field(goal).flat, source)

    def kernel_leg(self, reservation, t: int, source: Cell, goal: Cell,
                   trigger: int = 0, rescue_caps=(0, 0)):
        """Tier 0 of the python chain: greedy descent, bulk reservation
        audit, EATP's finisher walk and — on a hit, when ``rescue_caps``
        allows — the wait-following rescue.

        Returns ``(verdict, path, finisher_starts)`` with the verdicts of
        :mod:`repro.pathfinding.pipeline`; ``finisher_starts`` holds the
        walk's start for verdict 2.  ``rescue_caps`` is ``(wait per step,
        total wait)``, ``(0, 0)`` turning the rescue off.  It reads the
        python layout, so it serves the python switch only: under the
        compiled one the kernel's ``leg`` runs tier 0 and this refuses
        (``ConfigurationError``), as a foreign table is (``TypeError``).
        """
        require_table(reservation)
        reservation.packed_buckets()
        flat = self._heuristics.field(goal).flat
        chain = descent(self._grid, flat, source)
        if chain is None:
            return 0, None, ()
        cells = chain.cells
        k = len(cells) - 1
        if trigger > 0 and k > 0:
            j = k - trigger if k > trigger else 0
            if reservation.audit_chain(t, chain, j):
                tail = follow_with_waits(reservation, cells[j:], t + j)
                path = None if tail is None else Path(
                    [(t + i,) + cell for i, cell in enumerate(cells[:j])]
                    + tail)
                return 2, path, (cells[j],)
        elif reservation.audit_chain(t, chain, k):
            return 1, Path.from_cells(cells, t), ()
        if rescue_caps[0]:
            steps = follow_with_waits(reservation, cells, t, *rescue_caps)
            if steps is not None:
                return 4, Path(steps), ()
        return 3, None, ()

"""Search heuristics for the A* family.

The paper uses the Manhattan distance h-value (Sec. V-C).  On layouts with
blocked cells Manhattan can underestimate badly, so we also provide an
exact "true distance" field backed by one BFS from the goal — a standard
MAPF trick that stays admissible and is reusable across the many searches
that share a goal (every delivery to the same picker, for instance).

Searches read one of two field kinds, both indexed by cell index
(``x·H + y``) and both with a native encoding in the compiled kernel:

* :class:`_LazyManhattanFlat` — the paper's h-value, two subtractions per
  lookup and nothing stored.  :func:`~repro.pathfinding.st_astar.search`
  builds one when called without a heuristic, and :class:`HeuristicField`
  holds one on unobstructed paper-scale floors, where the BFS distance
  equals Manhattan everywhere.
* the eager ``array('i')`` BFS field of :class:`HeuristicField`, flooded
  by :meth:`~repro.warehouse.grid.Grid.distance_flat` on every other
  floor — exact, so *tighter* than Manhattan on obstructed floors while
  staying admissible and consistent.

A search takes a :class:`HeuristicField` or nothing (Manhattan); both
are consistent, which the native kernel's bucket queue needs.  The
callable :func:`manhattan_heuristic` serves the frozen seed core in
``_legacy.py``, which takes any :data:`Heuristic`.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..types import Cell, manhattan
from ..warehouse.grid import Grid

#: A heuristic maps a cell to a lower bound on its distance to the goal.
Heuristic = Callable[[Cell], int]


def manhattan_heuristic(goal: Cell) -> Heuristic:
    """The paper's h-value: Manhattan distance to ``goal``."""

    def h(cell: Cell) -> int:
        return manhattan(cell, goal)

    return h


class _LazyManhattanFlat:
    """A flat-indexed Manhattan field computed per lookup, never stored.

    On a grid with no blocked cells the exact BFS distance *is* the
    Manhattan distance for every cell (the 4-connected rectangle has no
    detours), so the eager O(HW) buffer a :class:`HeuristicField` normally
    builds — ~0.1 s and megabytes per goal on the paper-true 541×302
    floor, times thousands of distinct rack/picker goals — can be
    replaced by two subtractions at lookup time.  Values are identical
    by construction, so searches, descents and tie-breaking are
    bit-identical to the eager field's.
    """

    __slots__ = ("_gx", "_gy", "_height", "_n_cells")

    def __init__(self, goal: Cell, height: int, n_cells: int) -> None:
        self._gx, self._gy = goal
        self._height = height
        self._n_cells = n_cells

    def __getitem__(self, ci: int) -> int:
        x, y = divmod(ci, self._height)
        return abs(x - self._gx) + abs(y - self._gy)

    def __len__(self) -> int:
        return self._n_cells


class HeuristicField:
    """Exact distance-to-goal field with O(1) flat indexed lookup.

    ``flat[x * H + y]`` is the true shortest-path distance from ``(x, y)``
    to ``goal`` (cells that cannot reach the goal get an effectively
    infinite value so A* abandons them immediately).  Built from one
    reverse BFS; admissible and consistent by construction.  Instances are
    also plain callables, so they slot anywhere a :data:`Heuristic` is
    accepted.

    On *unobstructed* :attr:`~repro.warehouse.grid.Grid.paper_scale`
    floors, ``flat`` is a :class:`_LazyManhattanFlat` — value-identical (BFS distance equals
    Manhattan when nothing blocks), zero build cost and zero footprint.
    Other floors keep the eager buffer: the lookup is a hair faster and
    every historical benchmark/golden ran on it.
    """

    __slots__ = ("goal", "flat", "nbytes", "_height")

    def __init__(self, grid: Grid, goal: Cell) -> None:
        self.goal = goal
        self._height = grid.height
        if grid.paper_scale and not grid.blocked_cells:
            self.flat = _LazyManhattanFlat(goal, grid.height, grid.n_cells)
            self.nbytes = 64
            return
        # One typed int32 buffer per eager field (unreachable cells get
        # the n_cells + 1 infinity).  Indexing yields plain ints exactly
        # like the historical boxed-int list, while the buffer protocol
        # feeds the compiled search / tier-0 kernels zero-copy.
        self.flat = grid.distance_flat(goal, unreached=grid.n_cells + 1)
        #: Reported footprint: the actual 4 B/cell buffer plus header
        #: (the previous estimate charged 8 B/pointer list skeleton).
        self.nbytes = 64 + 4 * len(self.flat)

    def __call__(self, cell: Cell) -> int:
        return self.flat[cell[0] * self._height + cell[1]]


class HeuristicFieldCache:
    """Memoised :class:`HeuristicField` per goal, owned by each planner.

    Pickers and rack homes recur as goals thousands of times per run; one
    BFS per distinct goal amortises to almost nothing, and reusing the
    field object means repeated legs to the same goal stop re-allocating
    per-call heuristic closures.  The footprint is observable via
    :meth:`memory_bytes` but deliberately kept out of the Fig. 12 MC
    metric (see ``Planner._extra_memory_bytes``).
    """

    #: Cap on cached fields before the cache resets; planner goals are a
    #: bounded set (rack homes + pickers), so this only guards pathological
    #: callers that sweep goals across the whole floor.
    _FIELD_CAP = 1024

    def __init__(self, grid: Grid) -> None:
        self._grid = grid
        self._fields: Dict[Cell, HeuristicField] = {}

    def field(self, goal: Cell) -> HeuristicField:
        """Return (building if needed) the exact field toward ``goal``."""
        field = self._fields.get(goal)
        if field is None:
            if len(self._fields) >= self._FIELD_CAP:
                self._fields.clear()
            field = self._fields[goal] = HeuristicField(self._grid, goal)
        return field

    def distance(self, source: Cell, goal: Cell) -> int:
        """True shortest-path distance (≥ grid size if unreachable)."""
        return self.field(goal)(source)

    def memory_bytes(self) -> int:
        """Approximate footprint of all cached fields."""
        return sum(field.nbytes for field in self._fields.values())

    def __len__(self) -> int:
        return len(self._fields)

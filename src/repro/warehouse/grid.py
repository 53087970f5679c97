"""The warehouse grid: bounds, passability, and distance primitives.

The paper partitions the warehouse into unit cells the size of a robot
(Sec. II) and plans on the induced 4-connected graph.  ``Grid`` is the
single source of truth for which cells exist and which are blocked
(structural obstacles such as walls or pillars — racks themselves are *not*
obstacles because robots travel beneath them in rack-to-picker systems).

Everything derived from that triple costs bytes per cell, not objects per
cell: the packed keys are one ``array('q')``, the native kernel builds its
adjacency arrays itself from a blocked mask, and the python-side adjacency
rows exist only for the cells a python loop has actually read.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterable, Iterator, Optional, Set, Tuple

from ..config import PAPER_SCALE_MIN_CELLS
from ..errors import InvalidLocationError
from ..types import CELL_KEY_SHIFT, Cell, manhattan


class _AdjacencyRows(dict):
    """``rows[ci] → ((neighbour_ci, neighbour_key), …)``, built on touch.

    A python loop indexes this exactly as it would a precomputed table;
    a row is derived the first time it is read and memoised, so hits are
    plain ``dict`` lookups and a floor only ever holds the rows some
    python loop visited — none at all under the compiled kernel, which
    reads the capsule's own arrays.  It keeps the grid's defining triple
    rather than the grid, so the two never form a reference cycle.
    """

    __slots__ = ("_width", "_height", "_blocked")

    def __init__(self, width: int, height: int, blocked: Set[Cell]) -> None:
        self._width = width
        self._height = height
        self._blocked = blocked

    def __missing__(self, ci: int) -> Tuple[Tuple[int, int], ...]:
        width, height, blocked = self._width, self._height, self._blocked
        if not 0 <= ci < width * height:
            raise IndexError(f"cell index {ci} out of range")
        x, y = divmod(ci, height)
        # Same order as Grid.neighbours: +x, -x, +y, -y.
        row = self[ci] = () if (x, y) in blocked else tuple(
            (nx * height + ny, (nx << CELL_KEY_SHIFT) | ny)
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if 0 <= nx < width and 0 <= ny < height
            and (nx, ny) not in blocked)
        return row


class Grid:
    """A bounded 4-connected grid with optional blocked cells.

    Parameters
    ----------
    width, height:
        Grid dimensions; cells are ``(x, y)`` with ``0 <= x < width`` and
        ``0 <= y < height``.
    blocked:
        Cells robots may never occupy (walls, pillars).  Iterable of cells.

    ``paper_scale`` is the one regime switch: true on floors of at least
    :data:`~repro.config.PAPER_SCALE_MIN_CELLS` cells, where the planners
    tile the ST graph, the search orders ties deep, an unobstructed floor
    reads lazy Manhattan fields and the pipeline's rescue is on.
    """

    __slots__ = ("width", "height", "_blocked", "adjacency", "cell_keys",
                 "_kernel_capsule", "paper_scale")

    def __init__(self, width: int, height: int,
                 blocked: Optional[Iterable[Cell]] = None) -> None:
        if width <= 0 or height <= 0:
            raise InvalidLocationError(
                f"grid dimensions must be positive, got {width}x{height}")
        self.width = width
        self.height = height
        self.paper_scale = width * height >= PAPER_SCALE_MIN_CELLS
        self._blocked: Set[Cell] = set(blocked) if blocked else set()
        for cell in self._blocked:
            if not self.in_bounds(cell):
                raise InvalidLocationError(f"blocked cell {cell} is out of bounds")
        self._build_packed_tables()
        #: Lazily-built native prepared-grid capsule (per loaded module).
        self._kernel_capsule = None

    def _build_packed_tables(self) -> None:
        """Set up the packed-integer views the search core runs on.

        ``adjacency[ci]`` holds, for the cell with flat index ``ci = x·H +
        y``, one ``(neighbour_ci, neighbour_key)`` pair per passable
        cardinal neighbour *in the same order* :meth:`neighbours` yields
        them, so the packed search expands successors identically to the
        tuple-based one.  Rows are derived on first read and memoised
        (:class:`_AdjacencyRows`), so building a floor creates no per-cell
        python object.  ``cell_keys[ci]`` is the grid-independent bit
        packing ``x << 16 | y`` the reservation structures key on, held
        as one ``array('q')``.  Blocked cells get an empty adjacency row
        and are never the target of anyone else's row, so the search can
        index blindly.
        """
        height = self.height
        self.adjacency = _AdjacencyRows(self.width, height, self._blocked)
        cell_keys = array("q")
        for x in range(self.width):
            column = x << CELL_KEY_SHIFT
            cell_keys.extend(range(column, column + height))
        self.cell_keys = cell_keys

    # -- basic queries ----------------------------------------------------

    def in_bounds(self, cell: Cell) -> bool:
        """Whether ``cell`` lies inside the grid rectangle."""
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def passable(self, cell: Cell) -> bool:
        """Whether a robot may occupy ``cell`` (in bounds and not blocked)."""
        return self.in_bounds(cell) and cell not in self._blocked

    def require_passable(self, cell: Cell) -> None:
        """Raise :class:`InvalidLocationError` unless ``cell`` is passable."""
        if not self.passable(cell):
            raise InvalidLocationError(f"cell {cell} is not passable")

    @property
    def blocked_cells(self) -> frozenset:
        """The blocked cells as an immutable set."""
        return frozenset(self._blocked)

    @property
    def n_cells(self) -> int:
        """Total number of cells, blocked or not (H·W of the paper)."""
        return self.width * self.height

    # -- packed-integer view ------------------------------------------------

    def cell_index(self, cell: Cell) -> int:
        """Flat index ``x·H + y`` — the spatial part of a packed state."""
        return cell[0] * self.height + cell[1]

    def index_cell(self, index: int) -> Cell:
        """Invert :meth:`cell_index`."""
        return divmod(index, self.height)

    def kernel_capsule(self, module):
        """The native kernel's prepared-grid capsule, built lazily.

        The kernel fills its own adjacency arrays from the blocked mask
        (one byte per cell, indexed like :meth:`cell_index`), in the row
        order :meth:`neighbours` yields.  That is O(HW) and the grid is
        immutable, so the capsule is built once and shared by every
        compiled entry point (search, field flood, tier-0 leg).  The
        slot is dropped on pickling (:meth:`__reduce__`) and rebuilt on
        first use in the receiving process.
        """
        capsule = self._kernel_capsule
        if capsule is None:
            height = self.height
            mask = bytearray(self.width * height)
            for x, y in self._blocked:
                mask[x * height + y] = 1
            capsule = module.prepare_grid(self.width, height, mask)
            self._kernel_capsule = capsule
        return capsule

    def neighbours(self, cell: Cell) -> Iterator[Cell]:
        """Yield passable cardinal neighbours of ``cell``."""
        x, y = cell
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if self.passable(nxt):
                yield nxt

    def cells(self) -> Iterator[Cell]:
        """Yield every passable cell, row-major."""
        for y in range(self.height):
            for x in range(self.width):
                if (x, y) not in self._blocked:
                    yield (x, y)

    # -- distances ---------------------------------------------------------

    def manhattan(self, a: Cell, b: Cell) -> int:
        """Manhattan distance (ignores obstacles)."""
        return manhattan(a, b)

    def distance_flat(self, source: Cell, unreached: int = -1) -> array:
        """True shortest-path distances as a flat ``array('i')`` buffer.

        ``dist[x * H + y]`` is the BFS distance from ``source``;
        unvisited cells carry the ``unreached`` sentinel, which must not
        collide with a real distance (a distance is at most
        ``n_cells - 1``, so ``-1`` and ``n_cells + 1`` are both safe).
        The int32 buffer is the zero-copy backing store the compiled
        search / tier-0 kernels index directly.  The native flood
        (``bfs_fill``) and the python flood below visit cells in the
        same FIFO order and are bit-identical.
        """
        self.require_passable(source)
        n_cells = self.width * self.height
        if 0 <= unreached < n_cells:
            raise ValueError(
                f"unreached sentinel {unreached} collides with a distance")
        src = source[0] * self.height + source[1]
        # The one kernel switch; imported here because the pathfinding
        # package imports this module.
        from ..pathfinding import _kernel
        module = _kernel.active
        if module is not None:
            dist = array("i", bytes(4 * n_cells))
            module.bfs_fill(self.kernel_capsule(module), src, dist,
                            unreached)
            return dist
        # Flood over the adjacency rows with flat distances; an order of
        # magnitude faster than tuple BFS, which matters because every
        # heuristic field starts with one of these.
        adjacency = self.adjacency
        dist = array("i", (unreached,)) * n_cells
        dist[src] = 0
        frontier: deque = deque((src,))
        while frontier:
            ci = frontier.popleft()
            d = dist[ci] + 1
            for nci, __ in adjacency[ci]:
                if dist[nci] == unreached:
                    dist[nci] = d
                    frontier.append(nci)
        return dist

    # -- dunder ------------------------------------------------------------

    def __reduce__(self):
        """Pickle as the constructor call, not slot state.

        The lazy kernel capsule is a PyCapsule (unpicklable) and the
        memoised adjacency rows are cheap to rebuild, so worker initargs
        and checkpoints ship only the defining triple; everything
        derived is reconstructed deterministically on first use.
        """
        return (Grid, (self.width, self.height,
                       tuple(sorted(self._blocked))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Grid({self.width}x{self.height}, "
                f"{len(self._blocked)} blocked)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and self._blocked == other._blocked)

    def __hash__(self) -> int:
        return hash((self.width, self.height, frozenset(self._blocked)))

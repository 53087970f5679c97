"""Search heuristics for the A* family.

The paper uses the Manhattan distance h-value (Sec. V-C).  On layouts with
blocked cells Manhattan can underestimate badly, so we also provide an
exact "true distance" heuristic backed by one BFS from the goal — a
standard MAPF trick that stays admissible and is reusable across the many
searches that share a goal (every delivery to the same picker, for
instance).

Two representations coexist.  The closure-based heuristics
(:func:`manhattan_heuristic`, :func:`true_distance_heuristic`) satisfy the
callable :data:`Heuristic` protocol.  :class:`HeuristicField` additionally
exposes the distances as a flat list indexed by cell index (``x·H + y``),
which is what the packed-integer spatiotemporal A* core consumes — one
list index per h-lookup instead of a closure call.  On open floors the
field equals Manhattan everywhere (so searches are bit-identical to the
paper's h-value); on obstructed floors it is *tighter* while staying
admissible and consistent.
"""

from __future__ import annotations

import atexit
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..config import PAPER_SCALE_MIN_CELLS
from ..types import Cell, manhattan
from ..warehouse.grid import Grid

#: A heuristic maps a cell to a lower bound on its distance to the goal.
Heuristic = Callable[[Cell], int]


def manhattan_heuristic(goal: Cell) -> Heuristic:
    """The paper's h-value: Manhattan distance to ``goal``."""

    def h(cell: Cell) -> int:
        return manhattan(cell, goal)

    return h


def true_distance_heuristic(grid: Grid, goal: Cell) -> Heuristic:
    """Exact shortest-path distance to ``goal`` via one reverse BFS.

    Unreachable cells get an effectively infinite value so A* abandons
    them immediately instead of expanding toward a dead end.
    """
    dist = grid.bfs_distances(goal)
    infinity = grid.n_cells + 1

    def h(cell: Cell) -> int:
        d = int(dist[cell])
        return d if d >= 0 else infinity

    return h


class _LazyManhattanFlat:
    """A flat-indexed Manhattan field computed per lookup, never stored.

    On a grid with no blocked cells the exact BFS distance *is* the
    Manhattan distance for every cell (the 4-connected rectangle has no
    detours), so the eager O(HW) list a :class:`HeuristicField` normally
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

    On *unobstructed* floors of at least
    :data:`~repro.config.PAPER_SCALE_MIN_CELLS` cells, ``flat`` is a
    :class:`_LazyManhattanFlat` — value-identical (BFS distance equals
    Manhattan when nothing blocks), zero build cost and zero footprint.
    Small floors keep the eager list: the lookup is a hair faster and
    every historical benchmark/golden ran on it.
    """

    __slots__ = ("goal", "flat", "nbytes", "_height")

    def __init__(self, grid: Grid, goal: Cell) -> None:
        self.goal = goal
        self._height = grid.height
        if grid.n_cells >= PAPER_SCALE_MIN_CELLS and not grid.blocked_cells:
            self.flat = _LazyManhattanFlat(goal, grid.height, grid.n_cells)
            self.nbytes = 64
            return
        # One typed int32 buffer per eager field (unreachable cells get
        # the n_cells + 1 infinity).  Indexing yields plain ints exactly
        # like the historical boxed-int list, while the buffer protocol
        # feeds the compiled search / tier-0 kernels zero-copy and ships
        # through the shared field arena without re-flooding.
        self.flat = grid.distance_flat(goal, unreached=grid.n_cells + 1)
        #: Reported footprint: the actual 4 B/cell buffer plus header
        #: (the previous estimate charged 8 B/pointer list skeleton).
        self.nbytes = 64 + 4 * len(self.flat)

    @classmethod
    def from_flat(cls, goal: Cell, height: int, flat,
                  nbytes: int = 64) -> "HeuristicField":
        """Wrap an existing flat buffer (arena-backed fields).

        Shared-memory fields charge only the 64 B skeleton: the backing
        bytes live once in the arena, not per attached cache.
        """
        field = object.__new__(cls)
        field.goal = goal
        field._height = height
        field.flat = flat
        field.nbytes = nbytes
        return field

    def __call__(self, cell: Cell) -> int:
        return self.flat[cell[0] * self._height + cell[1]]


@dataclass(frozen=True)
class FieldArenaHandle:
    """Picklable pointer to a live :class:`FieldArena`.

    Worker initargs and checkpoints ship this instead of the fields
    themselves; :func:`attach_field_arena` turns it back into zero-copy
    views in the receiving process.
    """

    name: str
    height: int
    n_cells: int
    slots: Tuple[Tuple[Cell, int], ...]


class FieldArena:
    """Read-only shared-memory store of eager heuristic-field buffers.

    One :mod:`multiprocessing.shared_memory` block holds the int32
    distance buffer of every exported goal back to back, so matrix
    worker pools *inherit* fields by attaching instead of paying a
    full-floor BFS flood per goal per process — the fields are
    physically shared pages, not per-worker copies.  The arena is
    immutable after build; attached :class:`HeuristicField` views are
    value-identical to locally flooded ones by construction (same
    deterministic BFS, same sentinel).
    """

    def __init__(self, shm: shared_memory.SharedMemory, height: int,
                 n_cells: int, slots: Dict[Cell, int],
                 owner: bool) -> None:
        self._shm = shm
        self._height = height
        self._n_cells = n_cells
        self._slots = slots
        self._owner = owner
        #: Every memoryview handed out over the block.  ``close()``
        #: releases them so the mapping can actually drop — without
        #: this, ``SharedMemory``'s finaliser hits ``BufferError:
        #: cannot close exported pointers exist`` at interpreter
        #: shutdown in every process still holding a field view.
        self._views: List[memoryview] = []

    @classmethod
    def build(cls, grid: Grid, goals: Iterable[Cell]) -> "FieldArena":
        """Flood every distinct passable goal into one shared block."""
        distinct: List[Cell] = []
        seen = set()
        for goal in goals:
            if goal not in seen and grid.passable(goal):
                seen.add(goal)
                distinct.append(goal)
        n_cells = grid.n_cells
        size = max(4 * n_cells * len(distinct), 1)
        shm = shared_memory.SharedMemory(create=True, size=size)
        slots: Dict[Cell, int] = {}
        infinity = n_cells + 1
        for i, goal in enumerate(distinct):
            view = memoryview(shm.buf)[4 * n_cells * i:
                                       4 * n_cells * (i + 1)]
            cast = view.cast("i")
            cast[:] = grid.distance_flat(goal, unreached=infinity)
            cast.release()
            view.release()
            slots[goal] = i
        return cls(shm, grid.height, n_cells, slots, owner=True)

    def handle(self) -> FieldArenaHandle:
        """The picklable attachment token for this arena."""
        return FieldArenaHandle(self._shm.name, self._height,
                                self._n_cells,
                                tuple(self._slots.items()))

    def goals(self) -> Tuple[Cell, ...]:
        return tuple(self._slots)

    def field(self, goal: Cell) -> Optional[HeuristicField]:
        """A zero-copy :class:`HeuristicField` view, or ``None``."""
        slot = self._slots.get(goal)
        if slot is None:
            return None
        n = self._n_cells
        flat = memoryview(self._shm.buf)[4 * n * slot:
                                         4 * n * (slot + 1)].cast("i")
        self._views.append(flat)
        return HeuristicField.from_flat(goal, self._height, flat)

    def nbytes(self) -> int:
        return self._shm.size

    def __len__(self) -> int:
        return len(self._slots)

    def close(self) -> None:
        """Release the handed-out views and the shared block.

        The owner additionally unlinks; it should close only after
        every worker that attached has exited.  Attachers get this
        registered as an :mod:`atexit` hook by
        :func:`attach_field_arena`, so their mappings drop cleanly
        before interpreter teardown; fields served from the arena stop
        being readable afterwards, which only ever happens at process
        exit.  Idempotent.
        """
        for view in self._views:
            try:
                view.release()
            except BufferError:  # pragma: no cover - still sub-exported
                pass
        self._views.clear()
        try:
            if self._owner:
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover - gone
                    pass
            self._shm.close()
        except BufferError:  # pragma: no cover - foreign view alive
            pass


def attach_field_arena(handle: FieldArenaHandle) -> FieldArena:
    """Open an existing arena from its handle (worker side).

    Raises ``FileNotFoundError`` when the block no longer exists (e.g.
    a checkpoint restored after the owning run closed it); callers
    treat that as "no arena" and fall back to local floods.
    """
    try:
        # 3.13+ spells "attachment, not ownership" directly; without it
        # the attach would enrol the block with the resource tracker,
        # which unlinks it when *this* process exits — yanking it from
        # under the owner and every sibling (bpo-38119).
        shm = shared_memory.SharedMemory(name=handle.name, track=False)
    except TypeError:  # pragma: no cover - depends on interpreter
        # Pre-3.13: suppress the tracker registration for the duration
        # of the attach (the documented workaround for the same bug).
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=handle.name)
        finally:
            resource_tracker.register = original
    arena = FieldArena(shm, handle.height, handle.n_cells,
                       dict(handle.slots), owner=False)
    # Orderly mapping teardown at process exit (see FieldArena.close).
    atexit.register(arena.close)
    return arena


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
        self._invalidation_listeners: List[weakref.ref] = []
        self._arena: Optional[FieldArena] = None

    def attach_arena(self, arena: Optional[FieldArena]) -> None:
        """Serve arena goals as zero-copy views instead of re-flooding.

        Misses for goals outside the arena still flood locally, so an
        arena is purely an accelerator — behaviour is identical with or
        without one (the views are value-identical by construction).
        """
        self._arena = arena

    def add_invalidation_listener(self, listener: Callable[[], None]) -> None:
        """Register a hook fired whenever the field cache resets.

        Derived caches (the tier-0
        :class:`~repro.pathfinding.free_flow.FreeFlowPathCache`) key work
        off these fields; the hook lets them drop their entries in
        lockstep with the cap-driven reset.  Rebuilt fields are
        bit-identical (the BFS is deterministic over the immutable grid),
        so the hook is bookkeeping hygiene, not a correctness need.
        Bound-method listeners are held weakly — registering must not
        extend a derived cache's lifetime, and dead listeners are pruned
        at fire time — so a caller that builds chains repeatedly over one
        long-lived field cache leaks nothing.  Plain callables (lambdas,
        partials) are held strongly: their only reference is often the
        argument itself, and a silently-dead hook would be worse than the
        retention.
        """
        if hasattr(listener, "__self__"):
            ref = weakref.WeakMethod(listener)
        else:
            def ref(listener=listener):  # strong holder, same call shape
                return listener
        self._invalidation_listeners.append(ref)

    def field(self, goal: Cell) -> HeuristicField:
        """Return (building if needed) the exact field toward ``goal``."""
        field = self._fields.get(goal)
        if field is None:
            if len(self._fields) >= self._FIELD_CAP:
                self._fields.clear()
                live = []
                for ref in self._invalidation_listeners:
                    listener = ref()
                    if listener is not None:
                        listener()
                        live.append(ref)
                self._invalidation_listeners = live
            if self._arena is not None:
                field = self._arena.field(goal)
            if field is None:
                field = HeuristicField(self._grid, goal)
            self._fields[goal] = field
        return field

    def peek(self, goal: Cell) -> Optional[HeuristicField]:
        """The field toward ``goal`` if already materialised, else None.

        Consults the memo and the attached arena without flooding —
        the O(1) reachability oracle the shortest-path cache uses to
        fail disconnected pairs fast.
        """
        field = self._fields.get(goal)
        if field is None and self._arena is not None:
            field = self._arena.field(goal)
        return field

    def distance(self, source: Cell, goal: Cell) -> int:
        """True shortest-path distance (≥ grid size if unreachable)."""
        return self.field(goal)(source)

    def memory_bytes(self) -> int:
        """Approximate footprint of all cached fields."""
        return sum(field.nbytes for field in self._fields.values())

    def __len__(self) -> int:
        return len(self._fields)

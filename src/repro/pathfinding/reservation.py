"""The reservation table: one class behind both conflict structures.

The spatiotemporal A* search (Sec. V-C) and the cache-aided finisher
(Sec. VI-B) probe one concrete class, :class:`ReservationTable`.  The
*spatiotemporal graph* (memory-heavy, Sec. V-C) and the *conflict
detection table* (compact, Sec. VI-B) answer the same three operations
over the same reservations and differ only in what they cost in memory
(Fig. 12), so here they differ only in their rule, which is data: the
named constructors (:class:`~repro.pathfinding.cdt.ConflictDetectionTable`,
:class:`~repro.pathfinding.spatiotemporal_graph.SpatiotemporalGraph`,
:class:`~repro.pathfinding.spatiotemporal_graph.ShardedSpatiotemporalGraph`)
set nothing else.  Swapping one for another is the A4 ablation
(:mod:`repro.experiments.ablations`).

A table is the paper's three operations (Sec. VI-B) plus accounting:
conflict *search* (``is_free`` / ``edge_free``), *insertion*
(``reserve_path``) and the periodic *update* (``purge_before``), over one
layout per kernel switch: the native store when the one switch
(``repro.pathfinding._kernel.active``) is on, the per-tick buckets it
exports — the specification — when it is off.  The search, tier 0 and
the rescue take only this class (``TypeError`` otherwise).  The bulk
audits are defined once, here: :meth:`ReservationTable.audit_path` is
the reference walk the tests compare against,
:meth:`ReservationTable.audit_chain` is the python tier-0 audit over the
buckets (the native ``tier0_leg`` audits inside the kernel).

Semantics: ``is_free(t, cell)`` guards single-grid conflicts;
``edge_free(t, a, b)`` guards inter-grid (swap) conflicts for a move that
departs ``a`` at ``t`` and arrives at ``b`` at ``t + 1``.

**A swap needs an arrival.**  The move ``a -> b`` departing ``t`` is a
swap only if a partner goes ``b -> a`` over the same tick, and that
partner is on ``a`` at ``t + 1``.  So every table upholds::

    edge_free(t, a, b) is False  only if  is_free(t + 1, a) is False

Insertion stores an edge together with its arrival vertex, the purge
keeps the vertex and edge floors equal, and a step below the floor stores
neither half.  Every walk a plan runs relies on it and asks about a swap
only where the departure cell is taken at the arrival tick: both search
cores (the expansion's own wait probe is that question),
:meth:`ReservationTable.audit_chain`, :meth:`ReservationTable.move_allowed`
and the native tier-0 audit and rescue.  :meth:`ReservationTable.audit_path`
does not — it probes every edge, which makes it their reference.

The probes also take packed cell keys (``x << 16 | y``, see
:func:`repro.types.pack_cell`): ``is_free_packed`` / ``edge_free_packed``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..errors import ConfigurationError
from ..types import CELL_KEY_MASK, CELL_KEY_SHIFT, Cell, Tick
from . import _kernel
from .paths import Path


# -- packed descent chains ---------------------------------------------------

class PackedChain:
    """A free-flow descent chain in both representations tier 0 uses.

    Walked fresh for each leg by
    :func:`~repro.pathfinding.free_flow.descent` and
    audited by :meth:`ReservationTable.audit_chain`.  Every consecutive
    pair of chain cells is a *move* (greedy descents strictly descend the
    exact h-field, so they never wait), which is what lets the audit
    enumerate arrivals and traversals by plain index arithmetic.

    Attributes
    ----------
    cells:
        The cell tuple, including both endpoints (what a leg is built
        from).
    keys:
        Packed cell keys (``x << 16 | y``) per chain cell.
    """

    __slots__ = ("cells", "keys")

    def __init__(self, cells: Tuple[Cell, ...], keys: List[int]) -> None:
        self.cells = cells
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)


def _stale_ticks(buckets: Dict[Tick, Set[int]], floor: Tick, t: Tick):
    """Ticks in ``[floor, t)`` that may hold a bucket, cheapest way first.

    Walking ``range(floor, t)`` is O(ticks purged) — the normal periodic
    case, where the window advances by the purge cadence.  If a caller
    jumps the floor far ahead of the live window, scanning the bucket keys
    (O(live ticks)) is cheaper; either way the cost never depends on the
    number of stored reservations.
    """
    if t - floor <= len(buckets):
        return range(floor, t)
    return [tick for tick in buckets if tick < t]


def _tile_of(key: int, bits: int) -> int:
    """Tile id of packed cell ``key`` for ``2**bits``-cell-square tiles,
    packed like a cell key (tile-x in the high half-word)."""
    return ((key >> (CELL_KEY_SHIFT + bits)) << CELL_KEY_SHIFT) | (
        (key & CELL_KEY_MASK) >> bits)


class ReservationTable:
    """Conflict bookkeeping for already-planned paths, under one rule.

    Under the compiled switch the reservations live in the native store
    (``_store``, a capsule of ``_kernel/_stsearchmodule.c``), which
    inserts, purges, probes and counts them without a python object per
    key.  Under the python switch they live in the layout the store
    exports, the specification: per-tick buckets of packed cell keys
    (``_buckets``, ``{t: set of x << 16 | y}``) and per-tick buckets of
    traversed timed edges as packed 64-bit keys (``_edge_buckets``,
    ``source_key << 32 | target_key`` keyed by departure tick) — a swap
    is the reversed key in the departure tick's bucket.  Under a tiled
    rule the layout also keeps each tick's set of tile ids (``_tiles``).
    :meth:`_sync` converts (the store's export ⇄ its state argument)
    whenever the switch and the layout a table holds disagree, so every
    operation reads the switch at call time, and a pickle always carries
    the python layout.

    Edges below the purge floor are never stored: probes at purged times
    answer "free" anyway (the corresponding vertices are gone), and
    refusing them keeps every live bucket at or above the floor, which is
    what lets the purge walk ``range(old_floor, new_floor)``.

    Both layouts answer the same four counts, ``(ticks, units,
    edge_ticks, edges)``: ``ticks`` is the live ticks, or under a dense
    rule the layers ``[floor, max tick]``; ``units`` is the entries, the
    layers, or the distinct (tick, tile) pairs.  The rule turns them into
    the Fig. 12 footprint and the :meth:`live_counts` names.

    Parameters
    ----------
    tile_bits, layer_height, layer_cells:
        The store rule, what ``store_new`` takes: tiles ``2**tile_bits``
        cells a side (``-1``: untiled), and the dense layer's height and
        cell count (``0``: none; a dense layer refuses a cell off it).
    tick_bytes, unit_bytes, base_bytes:
        Bytes charged per tick, per unit and once.  Every rule also
        charges the swap buckets: ~100 B per entry of a set of small
        ints (measured, matching the seed's tuple-set estimate) plus the
        per-tick bucket headers the tick-keyed layout adds.
    count_names:
        ``(name, 0 for ticks or 1 for units)`` pairs: the counts
        :meth:`live_counts` reports beside the edges and the footprint.
    """

    _store = None

    def __init__(self, tile_bits: int = -1, layer_height: int = 0,
                 layer_cells: int = 0, tick_bytes: int = 0,
                 unit_bytes: int = 0, base_bytes: int = 0,
                 count_names: Tuple[Tuple[str, int], ...] = ()) -> None:
        self._tile_bits = tile_bits
        self._layer_height = layer_height
        self._layer_cells = layer_cells
        self._tick_bytes = tick_bytes
        self._unit_bytes = unit_bytes
        self._base_bytes = base_bytes
        self._count_names = count_names
        self.__dict__.update(self._python_layout(0, 0, 0, {}, {}))

    def __getstate__(self):
        state = self.__dict__.copy()
        store = state.pop("_store", None)
        if store is not None:
            state.update(self._python_layout(
                *_kernel.load_compiled().store_export(store)))
        return state

    def __setstate__(self, state) -> None:
        # A checkpoint from a build with another python layout (the ST
        # graphs' dense or tiled ``_layers``, the tiled CDT the alias in
        # ``cdt.py`` names): refuse it at load time, not at its first probe.
        if "_buckets" not in state:
            raise TypeError(f"a {type(self).__name__} state without "
                            f"per-tick buckets; this build has no such layout")
        if "_count_names" not in state:
            # Pickled when each table was its own class: the class's
            # constructor, over the argument the state kept, sets the
            # rule, and of the rest only the layout is kept.
            type(self).__init__(self, *[state[name] for name in (
                "_grid", "_tile_bits") if name in state])
            state = {name: value for name, value in state.items()
                     if name in self.__dict__}
        self.__dict__.update(state)
        self._sync()

    def _sync(self):
        """The native module when the table is store-backed, else ``None``,
        after converting the layout the table holds to the switch's."""
        kernel = _kernel.active
        if (kernel is None) != (self._store is None):
            if kernel is None:
                self.__dict__.update(self._python_layout(
                    *_kernel.load_compiled().store_export(self._store)))
                del self._store
            else:
                self._store = kernel.store_new(
                    self, self._tile_bits, self._layer_height,
                    self._layer_cells, (
                        self._floor, self._edge_floor,
                        max(self._buckets, default=self._floor),
                        self._buckets, self._edge_buckets))
                for name in self._python_layout(0, 0, 0, {}, {}):
                    delattr(self, name)
        return kernel

    def _python_layout(self, floor, edge_floor, high, vertices, edges):
        """The python layout of ``store_export``'s answer (``high`` is
        what the buckets imply, so it is not kept)."""
        layout = {"_buckets": vertices, "_floor": floor,
                  "_n_entries": sum(map(len, vertices.values())),
                  "_edge_buckets": edges, "_edge_floor": edge_floor,
                  "_n_edges": sum(map(len, edges.values()))}
        bits = self._tile_bits
        if bits >= 0:
            layout["_tiles"] = {t: {_tile_of(key, bits) for key in keys}
                                for t, keys in vertices.items()}
        return layout

    def kernel_probe_spec(self):
        """The native store the kernel probes, or ``None`` under the
        python switch."""
        return self._store if self._sync() is not None else None

    def packed_buckets(self):
        """``(vertex buckets, edge buckets)`` of the python layout, which
        the python walkers read; under the compiled switch the kernel
        walks the store instead, and this refuses."""
        if self._sync() is not None:
            raise ConfigurationError(
                "the python walkers read the python layout; under the "
                "compiled switch the kernel walks the store")
        return self._buckets, self._edge_buckets

    # -- the three operations -----------------------------------------------

    def is_free(self, t: Tick, cell: Cell) -> bool:
        """Whether no path holds ``cell`` at time ``t``."""
        return self.is_free_packed(t, (cell[0] << CELL_KEY_SHIFT) | cell[1])

    def is_free_packed(self, t: Tick, key: int) -> bool:
        kernel = self._sync()
        if kernel is not None:
            return not kernel.store_probe(self._store, t, key)
        bucket = self._buckets.get(t)
        return bucket is None or key not in bucket

    def edge_free(self, t: Tick, source: Cell, target: Cell) -> bool:
        """Whether moving ``source``→``target`` during tick ``t`` avoids a
        swap; false only if ``is_free(t + 1, source)`` is (module
        docstring)."""
        return self.edge_free_packed(
            t, (source[0] << CELL_KEY_SHIFT) | source[1],
            (target[0] << CELL_KEY_SHIFT) | target[1])

    def edge_free_packed(self, t: Tick, source_key: int,
                         target_key: int) -> bool:
        kernel = self._sync()
        if kernel is not None:
            return not kernel.store_probe(self._store, t, source_key,
                                          target_key)
        bucket = self._edge_buckets.get(t)
        return bucket is None or (
            (target_key << 32) | source_key) not in bucket

    def reserve_path(self, path: Path) -> None:
        """Insert the vertices and edges of ``path`` into the table."""
        kernel = self._sync()
        if kernel is not None:
            kernel.store_reserve(self._store, path.start_time, path.keys)
            return
        keys = path.keys
        bits, height, n_cells = (self._tile_bits, self._layer_height,
                                 self._layer_cells)
        if n_cells and not all(
                (key & CELL_KEY_MASK) < height and (key >> CELL_KEY_SHIFT)
                * height + (key & CELL_KEY_MASK) < n_cells for key in keys):
            raise IndexError("cell index outside dense layer")
        buckets, edge_buckets = self._buckets, self._edge_buckets
        floor = self._floor
        previous = keys[0]
        for t, key in enumerate(keys, path.start_time):
            if t >= floor:
                bucket = buckets.get(t)
                if bucket is None:
                    bucket = buckets[t] = set()
                if key not in bucket:
                    bucket.add(key)
                    self._n_entries += 1
                    if bits >= 0:
                        self._tiles.setdefault(t, set()).add(
                            _tile_of(key, bits))
                # the move into ``key`` departs t - 1: stored from the
                # floor up, with its arrival vertex
                if t > floor and previous != key:
                    edge = (previous << 32) | key
                    bucket = edge_buckets.get(t - 1)
                    if bucket is None:
                        bucket = edge_buckets[t - 1] = set()
                    if edge not in bucket:
                        bucket.add(edge)
                        self._n_edges += 1
            previous = key

    def purge_before(self, t: Tick) -> None:
        """The periodic *update* operation: delete all passed timestamps."""
        kernel = self._sync()
        if kernel is not None:
            kernel.store_purge(self._store, t)
            return
        if t > self._floor:
            # An edge departs a tick its source vertex holds, so the
            # vertex buckets name every stale edge bucket too.
            buckets = self._buckets
            tiles = self._tiles if self._tile_bits >= 0 else {}
            for tick in _stale_ticks(buckets, self._floor, t):
                bucket = buckets.pop(tick, None)
                if bucket is not None:
                    self._n_entries -= len(bucket)
                    self._n_edges -= len(self._edge_buckets.pop(tick, ()))
                    tiles.pop(tick, None)
            self._floor = self._edge_floor = t

    # -- audits ---------------------------------------------------------------

    def audit_path(self, path: Path) -> bool:
        """Whether every arrival and move of ``path`` is conflict-free.

        The probe-by-probe reference walk over :meth:`is_free` /
        :meth:`edge_free` — the one definition of "this path audits
        clean", and what the tier-0 equivalence tests compare against.
        No planning run calls it: the audit that does run is tier 0's
        (:meth:`audit_chain` under the python switch, inside the native
        ``tier0_leg`` under the compiled one).  Probes exactly what the
        search core would for the same moves: each arrival vertex at its
        arrival tick and each traversed edge at its departure tick; the
        source vertex at the start tick is the robot's own position and
        is not probed.
        """
        steps = path.steps
        previous = steps[0]
        for step in steps[1:]:
            t0, x0, y0 = previous
            t1, x1, y1 = step
            if not self.is_free(t1, (x1, y1)):
                return False
            if ((x0 != x1 or y0 != y1)
                    and not self.edge_free(t0, (x0, y0), (x1, y1))):
                return False
            previous = step
        return True

    def audit_chain(self, t: Tick, chain: PackedChain, limit: int) -> bool:
        """Audit the first ``limit`` moves of a packed descent chain.

        Equivalent to :meth:`audit_path` on ``Path.from_cells(
        chain.cells[:limit + 1], t)`` — arrival ``i`` is probed at tick
        ``t + i`` and the traversed edge at its departure tick ``t + i - 1``
        — but reads the buckets with the chain's precomputed packed keys
        instead of building a timed :class:`~repro.pathfinding.paths.Path`
        first, so a rejected candidate costs no allocation at all, and
        asks about the edge only where the departure cell is taken at the
        arrival tick (a swap needs an arrival).  Requires every chain step
        to be a move (descent chains always are) and the python switch
        (:meth:`packed_buckets`).
        """
        keys = chain.keys
        vertex_buckets, edge_buckets = self.packed_buckets()
        for i in range(1, limit + 1):
            occupied = vertex_buckets.get(t + i)
            if occupied is None:
                continue
            if keys[i] in occupied:
                return False
            if keys[i - 1] in occupied:
                swaps = edge_buckets.get(t + i - 1)
                if (swaps is not None
                        and ((keys[i] << 32) | keys[i - 1]) in swaps):
                    return False
        return True

    def move_allowed(self, t: Tick, source: Cell, target: Cell) -> bool:
        """Whether a robot at ``source`` may be at ``target`` at ``t + 1``.

        Combines the single-grid check on the arrival vertex with the
        inter-grid check on the traversed edge; a wait (``source ==
        target``) only needs the vertex check, and so does a move out of
        a cell nobody arrives on (a swap needs an arrival).
        """
        if not self.is_free(t + 1, target):
            return False
        if source == target or self.is_free(t + 1, source):
            return True
        return self.edge_free(t, source, target)

    # -- accounting -----------------------------------------------------------

    def _counts(self, walk: bool = False):
        kernel = self._sync()
        if kernel is not None:
            return kernel.store_counts(self._store, walk)
        buckets, edges = self._buckets, self._edge_buckets
        ticks = len(buckets)
        if self._layer_cells and buckets:
            ticks = max(buckets) - self._floor + 1
        units = (sum(map(len, self._tiles.values())) if self._tile_bits >= 0
                 else ticks if self._layer_cells
                 else sum(map(len, buckets.values())) if walk
                 else self._n_entries)
        return ticks, units, len(edges), (
            sum(map(len, edges.values())) if walk else self._n_edges)

    def _footprint(self, ticks, units, edge_ticks, edges) -> int:
        return (self._base_bytes + self._tick_bytes * ticks
                + self._unit_bytes * units + 64 + 100 * edges
                + 64 * edge_ticks)

    def memory_bytes(self) -> int:
        """Modelled footprint of the layout the rule charges — the Fig. 12
        MC metric."""
        return self._footprint(*self._counts())

    def live_counts(self) -> Dict[str, int]:
        """Occupancy counters for service-mode telemetry.

        The soak harness samples these at every window boundary to prove
        the memory-flatness claim: under the periodic purge, live entries
        and buckets must track the reservation *window*, not the run
        length.  The rule's named counts come first, then the edges and
        the footprint, so every rule plots on one axis.
        """
        return self._named(self._counts())

    def recount(self) -> Dict[str, int]:
        """:meth:`live_counts` counted from scratch, ignoring the kept
        counters, so tests can assert they never drift."""
        return self._named(self._counts(True))

    def _named(self, counts) -> Dict[str, int]:
        named = {name: counts[index] for name, index in self._count_names}
        named.update(edges=counts[3], edge_ticks=counts[2],
                     memory_bytes=self._footprint(*counts))
        return named


def require_table(reservation) -> None:
    """Refuse, with ``TypeError``, a table that is not the library's: the
    search, tier 0 and the rescue read its store or its buckets."""
    if not isinstance(reservation, ReservationTable):
        raise TypeError(f"{type(reservation).__name__} is not one of the "
                        "library's reservation tables (ReservationTable)")

"""The spatiotemporal-graph reservation structure (paper Sec. V-C).

The time-expanded graph duplicates the spatial grid at every timestep
(Fig. 7): a vertex is a ``(t, x, y)`` triple.  The paper's criticism —
which Fig. 12 quantifies — is its memory appetite: the structure grows a
*full* H×W layer per live timestep, O((HW)²) in the worst case, regardless
of how sparsely the layer is actually occupied.

To reproduce that behaviour honestly, this implementation materialises a
dense occupancy layer (one byte per cell, a ``bytearray`` indexed by cell
index ``x·H + y``) for **every** timestep between the purge floor and the
latest reserved step, exactly as a literal time-expanded graph does.  The
CDT (``cdt.py``) keeps only the occupied entries and is the paper's fix.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..types import CELL_KEY_MASK, CELL_KEY_SHIFT, Cell, Tick
from ..warehouse.grid import Grid
from . import _kernel
from .paths import Path
from .reservation import ReservationTable, _EdgeMixin


def tile_of_cell(x: int, y: int, bits: int) -> int:
    """Tile id of cell ``(x, y)`` for ``2**bits``-cell-square tiles.

    Tile ids reuse the cell-key packing (tile-x in the high half-word) so
    a tile id is one small int and the mapping is a pair of shifts.
    """
    return ((x >> bits) << CELL_KEY_SHIFT) | (y >> bits)


class SpatiotemporalGraph(_EdgeMixin, ReservationTable):
    """Dense time-expanded reservation layers (the memory-heavy baseline).

    Parameters
    ----------
    grid:
        The spatial grid being expanded over time.
    """

    def __init__(self, grid: Grid) -> None:
        _EdgeMixin.__init__(self)
        self._grid = grid
        #: t -> dense one-byte-per-cell occupancy layer (cell-indexed).
        self._layers: Dict[Tick, bytearray] = {}
        self._floor: Tick = 0
        #: Highest materialised layer tick; only meaningful while
        #: ``_layers`` is non-empty.  The layers are always dense over
        #: ``[_floor, _high]`` (``_layer`` densifies every gap and the
        #: purge only trims from below), so tracking the top incrementally
        #: replaces the ``max()`` scan that dominated reserve-loop
        #: self-time at paper scale.
        self._high: Tick = 0
        self.mutation_stamp = 0

    def _layer(self, t: Tick) -> bytearray:
        """Materialise (densely!) the layer for timestep ``t``.

        Materialising every intermediate layer up to ``t`` is what makes
        this structure faithful to a literal time-expanded graph — and what
        makes it lose Fig. 12.
        """
        layer = self._layers.get(t)
        if layer is None:
            # A real time-expanded graph has *every* timestep's copy of the
            # grid, so create all missing layers up to t, not just t's.
            n_cells = self._grid.n_cells
            high = self._high if self._layers else self._floor
            for step in range(min(t, self._floor), max(t, high) + 1):
                if step >= self._floor and step not in self._layers:
                    self._layers[step] = bytearray(n_cells)
            self._high = max(t, high)
            layer = self._layers[t]
        return layer

    # -- ReservationTable ----------------------------------------------------

    def is_free(self, t: Tick, cell: Cell) -> bool:
        if t < self._floor:
            return True
        layer = self._layers.get(t)
        if layer is None:
            return True
        return not layer[cell[0] * self._grid.height + cell[1]]

    def is_free_packed(self, t: Tick, key: int) -> bool:
        # Layers below the floor are evicted, so a miss means free either
        # way — no separate floor check needed on the fast path.
        layer = self._layers.get(t)
        if layer is None:
            return True
        return not layer[(key >> CELL_KEY_SHIFT) * self._grid.height
                         + (key & CELL_KEY_MASK)]

    def edge_free(self, t: Tick, source: Cell, target: Cell) -> bool:
        return self._edge_free(t, source, target)

    edge_free_packed = _EdgeMixin._edge_free_packed

    def kernel_probe_spec(self):
        # Mode 2: {tick: bytearray[cell index]} layers, shared swaps.
        return 2, self._layers, self._edge_buckets, 0

    def reserve_path(self, path: Path) -> None:
        self.mutation_stamp += 1
        kernel = _kernel.active
        if kernel is not None:
            high = self._high if self._layers else self._floor - 1
            res = kernel.reserve_path(
                2, self._layers, self._edge_buckets, 0, self._grid.height,
                self._grid.n_cells, path.start_time, path.keys,
                self._floor, self._edge_floor, high)
            if self._layers:
                self._high = res[4]
            self._n_edges += res[3]
            return
        height = self._grid.height
        floor = self._floor
        layers = self._layers
        get = layers.get
        for t, key in enumerate(path.keys, path.start_time):
            if t >= floor:
                layer = get(t)
                if layer is None:
                    layer = self._layer(t)
                layer[(key >> CELL_KEY_SHIFT) * height
                      + (key & CELL_KEY_MASK)] = 1
        self._reserve_edges(path)

    def purge_before(self, t: Tick) -> None:
        self.mutation_stamp += 1
        kernel = _kernel.active
        if kernel is not None:
            res = kernel.purge_before(
                2, self._layers, self._edge_buckets, 0, t, self._floor,
                self._edge_floor)
            self._floor = max(self._floor, t)
            if t > self._edge_floor:
                self._n_edges -= res[3]
                self._edge_floor = t
            return
        self._floor = max(self._floor, t)
        for stale in [step for step in self._layers if step < t]:
            del self._layers[stale]
        self._purge_edges(t)

    def memory_bytes(self) -> int:
        # One byte per cell per layer — identical accounting to the seed's
        # uint8 ndarray layers.  Every layer is exactly ``n_cells`` long,
        # so the per-layer sum collapses to one O(1) multiply.
        return (len(self._layers) * self._grid.n_cells
                + self._edges_memory())

    def recount(self):
        """Walk the layers and recompute the footprint from scratch."""
        counts = {"layers": len(self._layers)}
        counts.update(self._recount_edge_state())
        counts["memory_bytes"] = (
            sum(len(layer) for layer in self._layers.values())
            + 64 + 100 * counts["edges"] + 64 * counts["edge_ticks"])
        return counts

    # -- introspection ---------------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of materialised time layers (each a full grid copy)."""
        return len(self._layers)

    def live_counts(self):
        counts = {"layers": len(self._layers)}
        counts.update(self._edge_live_counts())
        counts["memory_bytes"] = self.memory_bytes()
        return counts


class ShardedSpatiotemporalGraph(_EdgeMixin, ReservationTable):
    """The ST graph with each time layer partitioned into spatial tiles.

    ``_layers[t][tile]`` is a dense one-byte-per-cell occupancy block for
    one ``2**tile_bits``-cell-square region of the floor at timestep
    ``t``; a tile block is materialised only when a reservation first
    lands in it.  That abandons the global structure's deliberate
    paper-faithful behaviour of densifying *every* cell of *every*
    intermediate layer — which is exactly the point: on the paper-true
    541×302 floor a single dense layer is 163 KB and a 3 000-robot run
    keeps hundreds of layers live, while the tiles a fleet actually
    crosses at the far end of its planning horizon are sparse.  The
    global :class:`SpatiotemporalGraph` remains the Fig. 12 baseline; the
    sharded variant exists to let the NTP/ATP family *execute* the
    paper's excluded Real-Large regime, and the equivalence suite pins
    its probe answers bit-identical to the global table's.

    Tile blocks are indexed ``((x & mask) << bits) | (y & mask)``; no
    grid reference is needed (tiling is pure coordinate arithmetic),
    which also keeps a checkpoint of the table proportional to live
    reservations, not floor size.  Directed edges stay in the shared
    tick-keyed edge buckets: every edge operation is already O(1) per
    probe and O(ticks) per purge, so tiling them would add a tile lookup
    per move for nothing.  Byte counts are tracked incrementally so
    ``memory_bytes`` — charged per simulation event — is O(1).
    """

    def __init__(self, tile_bits: int = 5) -> None:
        _EdgeMixin.__init__(self)
        self._tile_bits = tile_bits
        self._tile_mask = (1 << tile_bits) - 1
        self._tile_cells = 1 << (2 * tile_bits)
        #: t -> (tile id -> dense per-tile occupancy block).
        self._layers: Dict[Tick, Dict[int, bytearray]] = {}
        self._floor: Tick = 0
        self._n_tile_layers = 0
        self.mutation_stamp = 0

    @property
    def tile_bits(self) -> int:
        """log2 of the tile edge length."""
        return self._tile_bits

    def _tile_slot(self, x: int, y: int) -> int:
        mask = self._tile_mask
        return ((x & mask) << self._tile_bits) | (y & mask)

    # -- ReservationTable ----------------------------------------------------

    def is_free(self, t: Tick, cell: Cell) -> bool:
        layer = self._layers.get(t)
        if layer is None:
            return True
        x, y = cell
        tile = layer.get(tile_of_cell(x, y, self._tile_bits))
        if tile is None:
            return True
        return not tile[self._tile_slot(x, y)]

    def is_free_packed(self, t: Tick, key: int) -> bool:
        layer = self._layers.get(t)
        if layer is None:
            return True
        x = key >> CELL_KEY_SHIFT
        y = key & CELL_KEY_MASK
        tile = layer.get(tile_of_cell(x, y, self._tile_bits))
        if tile is None:
            return True
        return not tile[self._tile_slot(x, y)]

    def edge_free(self, t: Tick, source: Cell, target: Cell) -> bool:
        return self._edge_free(t, source, target)

    edge_free_packed = _EdgeMixin._edge_free_packed

    def kernel_probe_spec(self):
        # Mode 4: {tick: {tile: bytearray[tile slot]}} layers, shared swaps.
        return 4, self._layers, self._edge_buckets, self._tile_bits

    def reserve_path(self, path: Path) -> None:
        self.mutation_stamp += 1
        kernel = _kernel.active
        if kernel is not None:
            res = kernel.reserve_path(
                4, self._layers, self._edge_buckets, self._tile_bits, 0,
                self._tile_cells, path.start_time, path.keys, self._floor,
                self._edge_floor, 0)
            self._n_tile_layers += res[2]
            self._n_edges += res[3]
            return
        layers = self._layers
        bits = self._tile_bits
        floor = self._floor
        last = None
        tile: Optional[bytearray] = None
        for t, key in enumerate(path.keys, path.start_time):
            if t < floor:
                continue
            x = key >> CELL_KEY_SHIFT
            y = key & CELL_KEY_MASK
            tile_id = tile_of_cell(x, y, bits)
            if (t, tile_id) != last:
                layer = layers.get(t)
                if layer is None:
                    layer = layers[t] = {}
                tile = layer.get(tile_id)
                if tile is None:
                    tile = layer[tile_id] = bytearray(self._tile_cells)
                    self._n_tile_layers += 1
                last = (t, tile_id)
            tile[self._tile_slot(x, y)] = 1
        self._reserve_edges(path)

    def purge_before(self, t: Tick) -> None:
        self.mutation_stamp += 1
        kernel = _kernel.active
        if kernel is not None:
            res = kernel.purge_before(
                4, self._layers, self._edge_buckets, self._tile_bits, t,
                self._floor, self._edge_floor)
            self._floor = max(self._floor, t)
            self._n_tile_layers -= res[2]
            if t > self._edge_floor:
                self._n_edges -= res[3]
                self._edge_floor = t
            return
        self._floor = max(self._floor, t)
        layers = self._layers
        for stale in [step for step in layers if step < t]:
            self._n_tile_layers -= len(layers[stale])
            del layers[stale]
        self._purge_edges(t)

    def memory_bytes(self) -> int:
        # One byte per *materialised tile* cell — the same accounting
        # unit as the global table, restricted to the blocks that exist.
        return self._n_tile_layers * self._tile_cells + self._edges_memory()

    def recount(self):
        """Walk the layers and recompute the incremental counters."""
        counts = {"layers": len(self._layers),
                  "tile_layers": sum(len(layer)
                                     for layer in self._layers.values())}
        counts.update(self._recount_edge_state())
        counts["memory_bytes"] = (
            counts["tile_layers"] * self._tile_cells
            + 64 + 100 * counts["edges"] + 64 * counts["edge_ticks"])
        return counts

    # -- introspection -------------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of timesteps holding at least one materialised tile."""
        return len(self._layers)

    def live_counts(self):
        counts = {"layers": len(self._layers),
                  "tile_layers": self._n_tile_layers}
        counts.update(self._edge_live_counts())
        counts["memory_bytes"] = self.memory_bytes()
        return counts

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

That is the python layout, the specification.  Under the compiled switch
both graphs hold the native store instead — the CDT's per-tick keys —
and keep only their accounting rule: the store counts the layers the
dense rule spans (``[floor, high]``) and the (tick, tile) pairs the tiled
one materialises, so ``memory_bytes`` charges exactly what the python
layout holds while no layer is ever allocated.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..types import CELL_KEY_MASK, CELL_KEY_SHIFT, Tick
from ..warehouse.grid import Grid
from .paths import Path
from .reservation import ReservationTable, _StoreBacked, _edges_memory


def tile_of_cell(x: int, y: int, bits: int) -> int:
    """Tile id of cell ``(x, y)`` for ``2**bits``-cell-square tiles.

    Tile ids reuse the cell-key packing (tile-x in the high half-word) so
    a tile id is one small int and the mapping is a pair of shifts.
    """
    return ((x >> bits) << CELL_KEY_SHIFT) | (y >> bits)


class SpatiotemporalGraph(_StoreBacked, ReservationTable):
    """Dense time-expanded reservation layers (the memory-heavy baseline).

    Parameters
    ----------
    grid:
        The spatial grid being expanded over time.
    """

    def __init__(self, grid: Grid) -> None:
        self._grid = grid
        super().__init__()

    # -- the python layout: t -> dense one-byte-per-cell layer ----------------
    #
    # ``_layers`` is dense over ``[_floor, _high]`` (``_layer`` densifies
    # every gap and the purge only trims from below), so the top is tracked
    # incrementally; ``_high`` is meaningful only while ``_layers`` is
    # non-empty.  The store keeps the same ``high`` and counts the layers
    # this rule implies.

    def _store_rule(self):
        return -1, self._grid.height, self._grid.n_cells

    def _vertex_layout(self, floor, high, vertices):
        height = self._grid.height
        layers = {}
        if vertices:
            layers = {step: bytearray(self._grid.n_cells)
                      for step in range(floor, high + 1)}
        for t, keys in vertices.items():
            for key in keys:
                layers[t][(key >> CELL_KEY_SHIFT) * height
                          + (key & CELL_KEY_MASK)] = 1
        return {"_layers": layers, "_floor": floor, "_high": high}

    def _vertex_export(self):
        height = self._grid.height
        return self._high, {
            t: [((ci // height) << CELL_KEY_SHIFT) | ci % height
                for ci, taken in enumerate(layer) if taken]
            for t, layer in self._layers.items()}

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

    def _vertex_free(self, t: Tick, key: int) -> bool:
        # Layers below the floor are evicted, so a miss means free.
        layer = self._layers.get(t)
        return layer is None or not layer[
            (key >> CELL_KEY_SHIFT) * self._grid.height
            + (key & CELL_KEY_MASK)]

    def _reserve_vertices(self, path: Path) -> None:
        height = self._grid.height
        floor = self._floor
        get = self._layers.get
        for t, key in enumerate(path.keys, path.start_time):
            if t >= floor:
                layer = get(t)
                if layer is None:
                    layer = self._layer(t)
                layer[(key >> CELL_KEY_SHIFT) * height
                      + (key & CELL_KEY_MASK)] = 1

    def _purge_vertices(self, t: Tick) -> None:
        self._floor = max(self._floor, t)
        for stale in [step for step in self._layers if step < t]:
            del self._layers[stale]

    def _vertex_counts(self, walk: bool):
        return len(self._layers), len(self._layers)

    def _account(self, counts) -> Dict[str, int]:
        # One byte per cell per layer — identical accounting to the seed's
        # uint8 ndarray layers, whichever layout holds the reservations.
        layers, __, edge_ticks, edges = counts
        return {"layers": layers, "edges": edges, "edge_ticks": edge_ticks,
                "memory_bytes": (layers * self._grid.n_cells
                                 + _edges_memory(edge_ticks, edges))}

    # -- introspection ---------------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of materialised time layers (each a full grid copy)."""
        return self.live_counts()["layers"]


class ShardedSpatiotemporalGraph(_StoreBacked, ReservationTable):
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
    tick-keyed edge buckets.  Under the compiled switch the store tallies
    the distinct (tick, tile) pairs, so ``memory_bytes`` charges the
    blocks this layout would hold.
    """

    def __init__(self, tile_bits: int = 5) -> None:
        self._tile_bits = tile_bits
        self._tile_mask = (1 << tile_bits) - 1
        self._tile_cells = 1 << (2 * tile_bits)
        super().__init__()

    @property
    def tile_bits(self) -> int:
        """log2 of the tile edge length."""
        return self._tile_bits

    def _tile_slot(self, x: int, y: int) -> int:
        mask = self._tile_mask
        return ((x & mask) << self._tile_bits) | (y & mask)

    # -- the python layout: t -> (tile id -> dense per-tile block) ------------

    def _store_rule(self):
        return self._tile_bits, 0, 0

    def _vertex_layout(self, floor, high, vertices):
        layers = {}
        for t, keys in vertices.items():
            layer = layers[t] = {}
            for key in keys:
                x, y = key >> CELL_KEY_SHIFT, key & CELL_KEY_MASK
                tile_id = tile_of_cell(x, y, self._tile_bits)
                tile = layer.get(tile_id)
                if tile is None:
                    tile = layer[tile_id] = bytearray(self._tile_cells)
                tile[self._tile_slot(x, y)] = 1
        return {"_layers": layers, "_floor": floor,
                "_n_tile_layers": sum(map(len, layers.values()))}

    def _vertex_export(self):
        bits, mask = self._tile_bits, self._tile_mask
        return 0, {
            t: [((tile >> CELL_KEY_SHIFT << bits | slot >> bits)
                 << CELL_KEY_SHIFT)
                | (tile & CELL_KEY_MASK) << bits | slot & mask
                for tile, block in layer.items()
                for slot, taken in enumerate(block) if taken]
            for t, layer in self._layers.items()}

    def _vertex_free(self, t: Tick, key: int) -> bool:
        layer = self._layers.get(t)
        if layer is None:
            return True
        x = key >> CELL_KEY_SHIFT
        y = key & CELL_KEY_MASK
        tile = layer.get(tile_of_cell(x, y, self._tile_bits))
        return tile is None or not tile[self._tile_slot(x, y)]

    def _reserve_vertices(self, path: Path) -> None:
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

    def _purge_vertices(self, t: Tick) -> None:
        self._floor = max(self._floor, t)
        layers = self._layers
        for stale in [step for step in layers if step < t]:
            self._n_tile_layers -= len(layers[stale])
            del layers[stale]

    def _vertex_counts(self, walk: bool):
        layers = self._layers
        return len(layers), (sum(map(len, layers.values())) if walk
                             else self._n_tile_layers)

    def _account(self, counts) -> Dict[str, int]:
        # One byte per *materialised tile* cell — the same accounting
        # unit as the global table, restricted to the blocks that exist.
        layers, tiles, edge_ticks, edges = counts
        return {"layers": layers, "tile_layers": tiles, "edges": edges,
                "edge_ticks": edge_ticks,
                "memory_bytes": (tiles * self._tile_cells
                                 + _edges_memory(edge_ticks, edges))}

    # -- introspection -------------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of timesteps holding at least one materialised tile."""
        return self.live_counts()["layers"]

"""Conflict Detection Table (paper Sec. VI-B) and its region-sharded twin.

Nothing is stored for free (cell, time) pairs, so the footprint tracks the
number of live reservations instead of the time horizon.  The paper reports
this drops the reservation space from O((HW)²) to O(HW) while keeping O(1)
conflict probes; Fig. 12 is the resulting memory gap and the A4 ablation in
this repo reproduces it directly.

Layout: reservations live in per-tick buckets of packed cell keys
(``x << 16 | y``).  A probe is two O(1) hits (tick bucket, then key); the
periodic *update* deletes whole passed buckets in O(ticks purged), where
the seed's per-cell timestamp sets forced a scan of every live cell.  The
packed keys are also exactly what the packed-integer spatiotemporal A*
core probes with, so the search's hot loop never materialises a tuple.

Supports the three operations of Sec. VI-B and nothing else: conflict
*search* (``is_free`` / ``edge_free``), *insertion* (``reserve_path``) and
the periodic *update* that deletes passed timestamps (``purge_before``).
Insertion and update run in the compiled mutation kernel when it is
loaded, with the python bodies below as the bit-identical fallback; the
bulk audits are the base class's, defined once over the probes.

One addition on top of the paper's structure, behaviour-neutral:

* **Region sharding** (:class:`ShardedConflictDetectionTable`).  The
  global table keys buckets by tick alone, so the periodic purge and the
  O(live ticks) ``memory_bytes`` sum walk state belonging to the whole
  fleet.  The sharded variant partitions the tick buckets into fixed-size
  spatial tiles so every operation touches only the tiles a leg crosses,
  and tracks entry counts incrementally so ``memory_bytes`` — called once
  per simulation event for the MC metric — is O(1).  Same probes, same
  answers; the equivalence suite pins the two variants bit-identical.
"""

from __future__ import annotations

from typing import Dict, Set

from ..types import CELL_KEY_MASK, CELL_KEY_SHIFT, Cell, Tick
from . import reservation as _rsv
from .paths import Path
from .reservation import (ReservationTable, _EdgeMixin, _stale_ticks,
                          tile_of_key)


class ConflictDetectionTable(_EdgeMixin, ReservationTable):
    """Sparse tick-bucketed packed reservations (the compact structure)."""

    def __init__(self) -> None:
        _EdgeMixin.__init__(self)
        #: t -> set of packed cell keys reserved at t.
        self._buckets: Dict[Tick, Set[int]] = {}
        self._floor: Tick = 0
        self._n_entries = 0
        self.mutation_stamp = 0

    # -- ReservationTable -----------------------------------------------------

    def is_free(self, t: Tick, cell: Cell) -> bool:
        bucket = self._buckets.get(t)
        return bucket is None or (
            (cell[0] << CELL_KEY_SHIFT) | cell[1]) not in bucket

    def is_free_packed(self, t: Tick, key: int) -> bool:
        bucket = self._buckets.get(t)
        return bucket is None or key not in bucket

    def edge_free(self, t: Tick, source: Cell, target: Cell) -> bool:
        return self._edge_free(t, source, target)

    edge_free_packed = _EdgeMixin._edge_free_packed

    def packed_buckets(self):
        return self._buckets, self._edge_buckets

    def kernel_probe_spec(self):
        # Mode 1: {tick: set(packed key)} vertices, {tick: set(edge)} swaps.
        return 1, self._buckets, self._edge_buckets, 0

    def reserve_path(self, path: Path) -> None:
        self.mutation_stamp += 1
        kernel = _rsv._MUTATION_MODULE
        if kernel is not None:
            self.mutation_kernel = "compiled"
            added, _, _, e_added, _ = kernel.reserve_path(
                1, self._buckets, self._edge_buckets, 0, 0, 0,
                path.start_time, path.keys, self._floor, self._edge_floor,
                0)
            self._n_entries += added
            self._n_edges += e_added
            return
        self.mutation_kernel = "python"
        buckets = self._buckets
        floor = self._floor
        for (t, x, y) in path.steps:
            if t >= floor:
                key = (x << CELL_KEY_SHIFT) | y
                bucket = buckets.get(t)
                if bucket is None:
                    bucket = buckets[t] = set()
                if key not in bucket:
                    bucket.add(key)
                    self._n_entries += 1
        self._reserve_edges(path)

    def purge_before(self, t: Tick) -> None:
        """The periodic *update* operation: delete all passed timestamps."""
        self.mutation_stamp += 1
        kernel = _rsv._MUTATION_MODULE
        if kernel is not None:
            self.mutation_kernel = "compiled"
            removed, _, _, e_removed = kernel.purge_before(
                1, self._buckets, self._edge_buckets, 0, t, self._floor,
                self._edge_floor)
            if t > self._floor:
                self._n_entries -= removed
                self._floor = t
            if t > self._edge_floor:
                self._n_edges -= e_removed
                self._edge_floor = t
            return
        self.mutation_kernel = "python"
        if t > self._floor:
            buckets = self._buckets
            for tick in _stale_ticks(buckets, self._floor, t):
                bucket = buckets.pop(tick, None)
                if bucket is not None:
                    self._n_entries -= len(bucket)
            self._floor = t
        self._purge_edges(t)

    def memory_bytes(self) -> int:
        # ~32 B per packed key in a set of small ints plus ~100 B per tick
        # bucket (dict slot + set header) — measured Python container
        # costs, consistent across runs and with the seed's estimate.
        # Entry counts are tracked incrementally so this stays O(1): the
        # simulation engine charges the MC metric on every event.
        return (64 + 100 * len(self._buckets) + 32 * self._n_entries
                + self._edges_memory())

    def recount(self):
        """Walk the buckets and recompute every incremental counter."""
        counts = {"reservations": sum(len(bucket)
                                      for bucket in self._buckets.values()),
                  "ticks_live": len(self._buckets)}
        counts.update(self._recount_edge_state())
        counts["memory_bytes"] = (
            64 + 100 * counts["ticks_live"] + 32 * counts["reservations"]
            + 64 + 100 * counts["edges"] + 64 * counts["edge_ticks"])
        return counts

    # -- introspection ----------------------------------------------------------

    @property
    def n_reservations(self) -> int:
        """Total number of live (cell, time) reservations."""
        return self._n_entries

    @property
    def n_cells_touched(self) -> int:
        """Number of cells with at least one live reservation."""
        touched: Set[int] = set()
        for bucket in self._buckets.values():
            touched |= bucket
        return len(touched)

    @property
    def n_ticks_live(self) -> int:
        """Number of ticks holding at least one reservation."""
        return len(self._buckets)

    def live_counts(self):
        counts = {"reservations": self._n_entries,
                  "ticks_live": len(self._buckets)}
        counts.update(self._edge_live_counts())
        counts["memory_bytes"] = self.memory_bytes()
        return counts


class ShardedConflictDetectionTable(_EdgeMixin, ReservationTable):
    """The CDT with tick buckets partitioned into fixed-size spatial tiles.

    ``_tiles[tile][t]`` is the set of packed cell keys reserved at ``t``
    within one ``2**tile_bits``-cell-square region of the floor, so
    ``reserve_path`` touches only the tiles the leg crosses (with a
    last-tile memo — consecutive steps almost always stay inside one
    tile) and the periodic purge walks each tile's own live ticks
    instead of one fleet-wide tick sequence.  Entry and bucket counts are
    tracked incrementally so ``memory_bytes`` is O(1) per call.

    Probe-for-probe equivalent to :class:`ConflictDetectionTable` — the
    key sets are merely partitioned — which the sharded-vs-global property
    suite pins on randomized cross-tile traffic.  Directed edges stay in
    the tick-keyed :class:`~repro.pathfinding.reservation._EdgeMixin`
    buckets: every edge operation is already O(1) per probe and O(ticks)
    per purge, so tiling them would add a second tile lookup per move for
    nothing.

    ``packed_buckets`` answers ``None`` (the layout is no longer one dict
    per tick), so the packed A* core probes through the ``*_packed``
    methods — slightly slower per probe, which the tier-0 fast path
    more than absorbs on the large floors this table is selected for.
    """

    def __init__(self, tile_bits: int = 5) -> None:
        _EdgeMixin.__init__(self)
        self._tile_bits = tile_bits
        #: tile id -> (t -> set of packed cell keys reserved at t).
        self._tiles: Dict[int, Dict[Tick, Set[int]]] = {}
        self._floor: Tick = 0
        self._n_entries = 0
        self._n_tick_buckets = 0
        self.mutation_stamp = 0

    @property
    def tile_bits(self) -> int:
        """log2 of the tile edge length."""
        return self._tile_bits

    # -- ReservationTable -----------------------------------------------------

    def is_free(self, t: Tick, cell: Cell) -> bool:
        return self.is_free_packed(
            t, (cell[0] << CELL_KEY_SHIFT) | cell[1])

    def is_free_packed(self, t: Tick, key: int) -> bool:
        tile = self._tiles.get(tile_of_key(key, self._tile_bits))
        if tile is None:
            return True
        bucket = tile.get(t)
        return bucket is None or key not in bucket

    def edge_free(self, t: Tick, source: Cell, target: Cell) -> bool:
        return self._edge_free(t, source, target)

    edge_free_packed = _EdgeMixin._edge_free_packed

    def kernel_probe_spec(self):
        # Mode 3: {tile: {tick: set(packed key)}} vertices, shared swaps.
        return 3, self._tiles, self._edge_buckets, self._tile_bits

    def reserve_path(self, path: Path) -> None:
        self.mutation_stamp += 1
        kernel = _rsv._MUTATION_MODULE
        if kernel is not None:
            self.mutation_kernel = "compiled"
            added, buckets_added, _, e_added, _ = kernel.reserve_path(
                3, self._tiles, self._edge_buckets, self._tile_bits, 0, 0,
                path.start_time, path.keys, self._floor, self._edge_floor,
                0)
            self._n_entries += added
            self._n_tick_buckets += buckets_added
            self._n_edges += e_added
            return
        self.mutation_kernel = "python"
        tiles = self._tiles
        bits = self._tile_bits
        floor = self._floor
        last_tile_id = -1
        tile: Dict[Tick, Set[int]] = {}
        for (t, x, y) in path.steps:
            if t < floor:
                continue
            key = (x << CELL_KEY_SHIFT) | y
            tile_id = tile_of_key(key, bits)
            if tile_id != last_tile_id:
                tile = tiles.get(tile_id)
                if tile is None:
                    tile = tiles[tile_id] = {}
                last_tile_id = tile_id
            bucket = tile.get(t)
            if bucket is None:
                bucket = tile[t] = set()
                self._n_tick_buckets += 1
            if key not in bucket:
                bucket.add(key)
                self._n_entries += 1
        self._reserve_edges(path)

    def purge_before(self, t: Tick) -> None:
        self.mutation_stamp += 1
        kernel = _rsv._MUTATION_MODULE
        if kernel is not None:
            self.mutation_kernel = "compiled"
            removed, buckets_removed, _, e_removed = kernel.purge_before(
                3, self._tiles, self._edge_buckets, self._tile_bits, t,
                self._floor, self._edge_floor)
            if t > self._floor:
                self._n_entries -= removed
                self._n_tick_buckets -= buckets_removed
                self._floor = t
            if t > self._edge_floor:
                self._n_edges -= e_removed
                self._edge_floor = t
            return
        self.mutation_kernel = "python"
        if t > self._floor:
            floor = self._floor
            for tile_id, tile in list(self._tiles.items()):
                for tick in _stale_ticks(tile, floor, t):
                    bucket = tile.pop(tick, None)
                    if bucket is not None:
                        self._n_entries -= len(bucket)
                        self._n_tick_buckets -= 1
                if not tile:
                    del self._tiles[tile_id]
            self._floor = t
        self._purge_edges(t)

    def memory_bytes(self) -> int:
        # Same accounting as the global CDT (the keys are merely
        # partitioned) plus one dict header per live tile.
        return (64 + 100 * self._n_tick_buckets + 32 * self._n_entries
                + 64 * len(self._tiles) + self._edges_memory())

    def recount(self):
        """Walk every tile and recompute the incremental counters."""
        entries = 0
        buckets = 0
        for tile in self._tiles.values():
            buckets += len(tile)
            for bucket in tile.values():
                entries += len(bucket)
        counts = {"reservations": entries, "ticks_live": buckets,
                  "tiles_live": len(self._tiles)}
        counts.update(self._recount_edge_state())
        counts["memory_bytes"] = (
            64 + 100 * counts["ticks_live"] + 32 * counts["reservations"]
            + 64 * counts["tiles_live"]
            + 64 + 100 * counts["edges"] + 64 * counts["edge_ticks"])
        return counts

    # -- introspection ----------------------------------------------------------

    @property
    def n_reservations(self) -> int:
        """Total number of live (cell, time) reservations."""
        return self._n_entries

    @property
    def n_tiles_live(self) -> int:
        """Number of tiles holding at least one reservation."""
        return len(self._tiles)

    @property
    def n_ticks_live(self) -> int:
        """Number of (tile, tick) buckets holding reservations."""
        return self._n_tick_buckets

    def live_counts(self):
        counts = {"reservations": self._n_entries,
                  "ticks_live": self._n_tick_buckets,
                  "tiles_live": len(self._tiles)}
        counts.update(self._edge_live_counts())
        counts["memory_bytes"] = self.memory_bytes()
        return counts

"""Conflict Detection Table (paper Sec. VI-B).

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
Insertion and update run in the native kernel when the one kernel switch
is on, with the python bodies below as the bit-identical fallback; the
bulk audits are the base class's, defined once over the probes.

One layout serves every floor size.  Splitting the tick buckets into
spatial tiles costs a container per (tile, tick) where this table has one
per tick, and a purge that walks every tile; on the paper-scale floor
that measured slower (PERFORMANCE.md), so only the dense ST graph, whose
layers are whole-floor copies, is tiled.
"""

from __future__ import annotations

from typing import Dict, Set

from ..types import CELL_KEY_SHIFT, Cell, Tick
from . import _kernel
from .paths import Path
from .reservation import ReservationTable, _EdgeMixin, _stale_ticks


class ConflictDetectionTable(_EdgeMixin, ReservationTable):
    """Sparse tick-bucketed packed reservations (the compact structure)."""

    def __init__(self) -> None:
        _EdgeMixin.__init__(self)
        #: t -> set of packed cell keys reserved at t.
        self._buckets: Dict[Tick, Set[int]] = {}
        self._floor: Tick = 0
        self._n_entries = 0
        self.mutation_stamp = 0

    def __setstate__(self, state) -> None:
        # A checkpoint from a build with the tiled CDT names that table by
        # the alias at the bottom of this module: refuse it at load time,
        # not at its first probe.
        if "_buckets" not in state:
            raise TypeError("a tiled CDT's state; this build has none")
        self.__dict__.update(state)

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
        kernel = _kernel.active
        if kernel is not None:
            added, _, _, e_added, _ = kernel.reserve_path(
                1, self._buckets, self._edge_buckets, 0, 0, 0,
                path.start_time, path.keys, self._floor, self._edge_floor,
                0)
            self._n_entries += added
            self._n_edges += e_added
            return
        buckets = self._buckets
        floor = self._floor
        for t, key in enumerate(path.keys, path.start_time):
            if t >= floor:
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
        kernel = _kernel.active
        if kernel is not None:
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


# A second name, not a second table: the frozen ``bench/trace.py`` imports
# it to shim the methods, which are this class's.  It goes when ``bench/``
# is next opened (ROADMAP item 2 (f)).
ShardedConflictDetectionTable = ConflictDetectionTable

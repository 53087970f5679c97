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
Under the compiled switch all three run on the native store, which keeps
the same per-tick keys in C-owned blocks; under the python switch they run
on the buckets themselves, the specification.  Both layouts, the three
operations and the bulk audits are the base classes'
(``reservation._StoreBacked``, ``ReservationTable``), shared with the ST
graphs: this table supplies only its store rule and its accounting rule.

One layout serves every floor size.  Splitting the tick buckets into
spatial tiles costs a container per (tile, tick) where this table has one
per tick, and a purge that walks every tile; on the paper-scale floor
that measured slower (PERFORMANCE.md), so only the dense ST graph, whose
layers are whole-floor copies, is tiled.
"""

from __future__ import annotations

from typing import Dict, Set

from .reservation import ReservationTable, _StoreBacked, _edges_memory


class ConflictDetectionTable(_StoreBacked, ReservationTable):
    """Sparse tick-bucketed packed reservations (the compact structure)."""

    def _store_rule(self):
        return -1, 0, 0

    def _account(self, counts) -> Dict[str, int]:
        # ~32 B per packed key in a set of small ints plus ~100 B per tick
        # bucket (dict slot + set header) — measured Python container
        # costs, consistent across runs and with the seed's estimate; the
        # store keeps the same counts, so both layouts charge alike.
        ticks, entries, edge_ticks, edges = counts
        return {"reservations": entries, "ticks_live": ticks,
                "edges": edges, "edge_ticks": edge_ticks,
                "memory_bytes": (64 + 100 * ticks + 32 * entries
                                 + _edges_memory(edge_ticks, edges))}

    # -- introspection ----------------------------------------------------------

    @property
    def n_reservations(self) -> int:
        """Total number of live (cell, time) reservations."""
        return self.live_counts()["reservations"]

    @property
    def n_cells_touched(self) -> int:
        """Number of cells with at least one live reservation."""
        touched: Set[int] = set()
        for bucket in self.__getstate__()["_buckets"].values():
            touched |= bucket
        return len(touched)

    @property
    def n_ticks_live(self) -> int:
        """Number of ticks holding at least one reservation."""
        return self.live_counts()["ticks_live"]


# A second name, not a second table: the frozen ``bench/trace.py`` imports
# it to shim the methods, which are this class's.  It goes when ``bench/``
# is next opened (ROADMAP item 3 (e)).  A checkpoint from a build with the
# tiled CDT names that table by it and is refused at load
# (``_StoreBacked.__setstate__``).
ShardedConflictDetectionTable = ConflictDetectionTable

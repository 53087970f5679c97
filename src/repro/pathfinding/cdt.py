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
operations and the audits belong to
:class:`~repro.pathfinding.reservation.ReservationTable`, shared with the
ST graphs: this class sets only its rule.

One layout serves every floor size.  Splitting the tick buckets into
spatial tiles costs a container per (tile, tick) where this table has one
per tick, and a purge that walks every tile; on the paper-scale floor
that measured slower (PERFORMANCE.md), so only the dense ST graph, whose
layers are whole-floor copies, is tiled.
"""

from __future__ import annotations

from .reservation import ReservationTable


class ConflictDetectionTable(ReservationTable):
    """Sparse tick-bucketed packed reservations (the compact structure).

    Charges ~32 B per packed key in a set of small ints plus ~100 B per
    tick bucket (dict slot + set header) — measured Python container
    costs, consistent across runs and with the seed's estimate; the store
    keeps the same counts, so both layouts charge alike.
    """

    def __init__(self) -> None:
        super().__init__(tick_bytes=100, unit_bytes=32, base_bytes=64,
                         count_names=(("reservations", 1), ("ticks_live", 0)))


# A second name, not a second table: the frozen ``bench/trace.py`` imports
# it to shim the methods, which are this class's.  It goes when ``bench/``
# is next opened (ROADMAP item 3 (e)).  A checkpoint from a build with the
# tiled CDT names that table by it and is refused at load
# (``ReservationTable.__setstate__``).
ShardedConflictDetectionTable = ConflictDetectionTable

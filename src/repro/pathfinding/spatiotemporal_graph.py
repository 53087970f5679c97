"""The spatiotemporal-graph reservation structure (paper Sec. V-C).

The time-expanded graph duplicates the spatial grid at every timestep
(Fig. 7): a vertex is a ``(t, x, y)`` triple.  The paper's criticism —
which Fig. 12 quantifies — is its memory appetite: the structure grows a
*full* H×W layer per live timestep, O((HW)²) in the worst case, regardless
of how sparsely the layer is actually occupied.  The CDT (``cdt.py``)
keeps only the occupied entries and is the paper's fix.

Both structures answer the same three operations over the same
reservations, so here the dense layer is an accounting rule, not a
python materialisation: both graphs are rules of
:class:`~repro.pathfinding.reservation.ReservationTable`, keeping the
CDT's per-tick keys (the native store under the compiled switch,
per-tick buckets under the python one) and charging what a literal
time-expanded graph holds.  The dense graph counts one byte per cell of
*every* layer between the purge floor and the latest reserved step,
exactly as if each were allocated; the tiled graph counts the
``2**tile_bits``-square blocks its reservations land in.  Either way
``memory_bytes`` — the Fig. 12 number — is what the materialised layout
would cost, and no layer is ever allocated.
"""

from __future__ import annotations

from ..warehouse.grid import Grid
from .reservation import ReservationTable


class SpatiotemporalGraph(ReservationTable):
    """Dense time-expanded reservation layers (the memory-heavy baseline).

    Charges a full one-byte-per-cell layer for every timestep in
    ``[floor, latest reserved step]``, occupied or not — identical
    accounting to the seed's uint8 ndarray layers — and refuses a cell
    outside the floor (``IndexError``: it has no place in a layer).

    Parameters
    ----------
    grid:
        The spatial grid being expanded over time.
    """

    def __init__(self, grid: Grid) -> None:
        super().__init__(layer_height=grid.height, layer_cells=grid.n_cells,
                         tick_bytes=grid.n_cells,
                         count_names=(("layers", 0),))


class ShardedSpatiotemporalGraph(ReservationTable):
    """The ST graph with each time layer partitioned into spatial tiles.

    Charges a dense one-byte-per-cell block for each ``2**tile_bits``-
    cell-square region of the floor at each timestep a reservation lands
    in — the distinct (tick, tile) pairs of the live reservations.  That
    abandons the global structure's deliberate paper-faithful charge for
    *every* cell of *every* intermediate layer — which is exactly the
    point: on the paper-true 541×302 floor a single dense layer is 163 KB
    and a 3 000-robot run keeps hundreds of layers live, while the tiles a
    fleet actually crosses at the far end of its planning horizon are
    sparse.  The global :class:`SpatiotemporalGraph` remains the Fig. 12
    baseline; the sharded variant exists to let the NTP/ATP family
    *execute* the paper's excluded Real-Large regime, and the equivalence
    suite pins its probe answers bit-identical to the global table's.

    Tiling is pure coordinate arithmetic (no grid reference), which also
    keeps a checkpoint of the table proportional to live reservations, not
    floor size.
    """

    def __init__(self, tile_bits: int = 5) -> None:
        super().__init__(tile_bits=tile_bits, unit_bytes=1 << (2 * tile_bits),
                         count_names=(("layers", 0), ("tile_layers", 1)))

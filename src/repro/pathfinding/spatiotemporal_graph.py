"""The spatiotemporal-graph reservation structure (paper Sec. V-C).

The time-expanded graph duplicates the spatial grid at every timestep
(Fig. 7): a vertex is a ``(t, x, y)`` triple.  The paper's criticism —
which Fig. 12 quantifies — is its memory appetite: the structure grows a
*full* H×W layer per live timestep, O((HW)²) in the worst case, regardless
of how sparsely the layer is actually occupied.  The CDT (``cdt.py``)
keeps only the occupied entries and is the paper's fix.

Both structures answer the same three operations over the same
reservations, so here the dense layer is an accounting rule, not a
python materialisation: the graphs keep the CDT's per-tick keys
(``reservation._StoreBacked`` — the native store under the compiled
switch, per-tick buckets under the python one) and charge what a literal
time-expanded graph holds.  The dense graph counts one byte per cell of
*every* layer between the purge floor and the latest reserved step,
exactly as if each were allocated; the tiled graph counts the
``2**tile_bits``-square blocks its reservations land in.  Either way
``memory_bytes`` — the Fig. 12 number — is what the materialised layout
would cost, and no layer is ever allocated.
"""

from __future__ import annotations

from typing import Dict

from ..warehouse.grid import Grid
from .reservation import ReservationTable, _StoreBacked, _edges_memory


class SpatiotemporalGraph(_StoreBacked, ReservationTable):
    """Dense time-expanded reservation layers (the memory-heavy baseline).

    Charges a full one-byte-per-cell layer for every timestep in
    ``[floor, latest reserved step]``, occupied or not, and refuses a
    cell outside the floor (``IndexError``: it has no place in a layer).

    Parameters
    ----------
    grid:
        The spatial grid being expanded over time.
    """

    def __init__(self, grid: Grid) -> None:
        self._grid = grid
        super().__init__()

    def _store_rule(self):
        return -1, self._grid.height, self._grid.n_cells

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
        """Number of time layers charged (each a full grid copy)."""
        return self.live_counts()["layers"]


class ShardedSpatiotemporalGraph(_StoreBacked, ReservationTable):
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
        self._tile_bits = tile_bits
        self._tile_cells = 1 << (2 * tile_bits)
        super().__init__()

    @property
    def tile_bits(self) -> int:
        """log2 of the tile edge length."""
        return self._tile_bits

    def _store_rule(self):
        return self._tile_bits, 0, 0

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
        """Number of timesteps holding at least one tile block."""
        return self.live_counts()["layers"]

"""Static K-nearest-racks index for flip requesting (paper Sec. VI-A).

Rack home locations are fixed, so "the K racks closest to any given cell"
is a static structure.  EATP flips the requesting side: instead of sorting
all racks by value and matching robots to them, it walks the idle robots
and probes only each robot's K closest racks — turning an
O(|R| log |R|) selection into an O(|A|·K) one.

The index answers by *home* cell.  A rack that is currently in transit is
simply skipped by the caller; its slot is not re-used, matching the paper's
"static and easy to maintain" description.

Under the python switch the flip reads the table through one gather,
:meth:`StaticRackKNN.select`: given the idle robots' cells in order and
the world's selectable-rack column (one byte per rack id), it returns
only the robots that have a selectable rack among their K nearest, as
``(position, rack ids)`` pairs with the ids in table order.  A robot
without one is left out — it would rank no candidate and claim nothing —
so a wake pays per robot a table row, not a python list.  Under the
compiled switch the kernel's ``learned_select`` gathers from
:attr:`StaticRackKNN.table` itself, in the same wake call that ranks
and steps the learner.

The kernel switch picks the builder: the native ``knn_fill`` or
:func:`_tile_fill`, the numpy twin the tests compare it against.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..config import Domain, declare
from ..errors import ConfigurationError
from ..types import Cell

#: Side, in cells, of the square tiles :func:`_tile_fill` walks.  Smaller
#: tiles shortlist fewer racks each but multiply the per-tile numpy
#: overhead; build time is flat over 8–12 on the 541×302 paper floor and
#: lowest at 8 on the small ones.
TILE = 8


def _tile_fill(homes: np.ndarray, width: int, height: int,
               out: np.ndarray) -> None:
    """``knn_fill`` in numpy: every cell's K racks of least (distance, id).

    The selection per cell is the first K of the *stable* ascending
    argsort of its rack distances — equivalently the K smallest of the
    composite key ``dist · n_racks + rack_id`` (ids are distinct, so the
    key is unique, breaks distance ties by id exactly as the stable sort
    does, and gives the id back as ``key % n_racks``).

    Only racks near a tile can enter its cells' top K.  Let ``c`` be the
    tile's centre cell, ``rad`` the largest distance from ``c`` to a cell
    of the tile and ``D`` the distance from ``c`` to its K-th nearest
    rack.  K racks lie within ``D`` of ``c``, hence within ``D + rad`` of
    any tile cell ``p``; so every rack of ``p``'s top K is within
    ``D + rad`` of ``p`` and ``D + 2·rad`` of ``c``.  The bound is
    inclusive, so ties survive it: the build is exact at
    O(neighbourhood), not O(n_racks), per cell.
    """
    n_racks, k = len(homes), out.shape[2]
    home_x, home_y = homes[:, 0], homes[:, 1]
    all_x = np.arange(width, dtype=np.int64)[:, None]
    all_y = np.arange(height, dtype=np.int64)[:, None]
    kth = k - 1
    for x0 in range(0, width, TILE):
        x1 = min(x0 + TILE, width)
        cx = (x0 + x1) // 2          # x1 - 1 is no farther than x0
        from_cx = np.abs(home_x - cx)
        for y0 in range(0, height, TILE):
            y1 = min(y0 + TILE, height)
            cy = (y0 + y1) // 2
            from_c = from_cx + np.abs(home_y - cy)          # (R,)
            reach = (np.partition(from_c, kth)[kth]
                     + 2 * ((cx - x0) + (cy - y0)))
            near = np.flatnonzero(from_c <= reach)          # (C,) ids
            dx = np.abs(all_x[x0:x1] - home_x[near])        # (w, C)
            dy = np.abs(all_y[y0:y1] - home_y[near])        # (h, C)
            key = (dx[:, None, :] + dy[None, :, :]) * n_racks + near
            best = np.partition(key, kth, axis=2)[:, :, :k]
            best.sort(axis=2)
            out[x0:x1, y0:y1] = best % n_racks


class StaticRackKNN:
    """Precomputed K closest racks for every grid cell.

    Parameters
    ----------
    rack_homes:
        Home cell per rack (index = rack id), each on the grid.
    width, height:
        Grid dimensions the index covers.
    k:
        How many closest racks to precompute per cell.

    Notes
    -----
    Distances are Manhattan, matching the unobstructed default layouts; on
    grids with blocked cells the true distance can exceed Manhattan, but the
    index is only used to *shortlist* candidates, so admissibility is not
    required.  Memory is O(H·W·K): int16 ids below 2¹⁵ racks, int32 from
    there — comfortably below the spatiotemporal structures it helps avoid.
    """

    @declare(k=Domain(int, 1))
    def __init__(self, rack_homes: Sequence[Cell], width: int, height: int,
                 k: int) -> None:
        if not rack_homes:
            raise ConfigurationError("need at least one rack to index")
        self.k = min(k, len(rack_homes))
        self.width = width
        self.height = height
        self._homes = np.array(rack_homes, dtype=np.int64)  # (n_racks, 2)
        if not ((self._homes >= 0).all() and (self._homes[:, 0] < width).all()
                and (self._homes[:, 1] < height).all()):
            raise ConfigurationError("every rack home must lie on the grid")
        dtype = np.int16 if len(rack_homes) < 2 ** 15 else np.int32
        self._nearest = np.empty((width, height, self.k), dtype=dtype)
        # The one kernel switch; imported here because the pathfinding
        # package imports the warehouse.
        from ..pathfinding import _kernel
        kernel = _kernel.active
        fill = _tile_fill if kernel is None else kernel.knn_fill
        fill(self._homes, width, height, self._nearest)

    def nearest(self, cell: Cell) -> List[int]:
        """Rack ids of the K racks closest to ``cell``, nearest first."""
        x, y = cell
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ConfigurationError(f"cell {cell} outside indexed area")
        return self._nearest[x, y].tolist()

    @property
    def table(self) -> np.ndarray:
        """The ``(width, height, K)`` table of rack ids, read in place."""
        return self._nearest

    def select(self, cells: Sequence[Cell],
               mask: bytearray) -> List[Tuple[int, List[int]]]:
        """The flip's gather: ``(i, ids)`` for each ``cells[i]`` whose K
        nearest racks include one with ``mask[id]`` set, ``ids`` those
        racks nearest first; a cell with none is left out."""
        gathered = []
        for i, (x, y) in enumerate(cells):
            ids = [rack_id for rack_id in self._nearest[x, y].tolist()
                   if mask[rack_id]]
            if ids:
                gathered.append((i, ids))
        return gathered

    def memory_bytes(self) -> int:
        """Approximate footprint of the index (for the MC metric)."""
        return int(self._nearest.nbytes + self._homes.nbytes)

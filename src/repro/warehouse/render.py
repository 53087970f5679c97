"""ASCII rendering of warehouse state, for debugging and demos.

Produces a row-per-``y`` text map of the floor:

* ``.``  empty travel cell
* ``#``  structurally blocked cell
* ``o``  rack home (rack present, no pending items)
* ``1``–``9`` rack home with that many pending items (``+`` for ≥ 10)
* ``_``  rack home whose rack is currently in transit
* ``P``  picker station (``Q`` when its queue is non-empty)
* ``r``  idle robot / ``R`` busy robot (drawn above anything else; a
  moving robot is drawn where its current leg began, see ``Robot``)

The legend is intentionally one character per cell so a whole default
dataset fits in a terminal.
"""

from __future__ import annotations

from typing import Dict, List

from ..types import Cell
from .entities import RackPhase
from .state import WarehouseState


def render_state(state: WarehouseState, show_legend: bool = False) -> str:
    """Render ``state`` as an ASCII map (origin top-left, x right, y down)."""
    grid = state.grid
    rows: List[List[str]] = [["." for __ in range(grid.width)]
                             for __ in range(grid.height)]

    for cell in grid.blocked_cells:
        x, y = cell
        rows[y][x] = "#"

    for rack in state.racks:
        x, y = rack.home
        if rack.phase is RackPhase.IN_TRANSIT:
            rows[y][x] = "_"
        elif not rack.pending_items:
            rows[y][x] = "o"
        else:
            count = len(rack.pending_items)
            rows[y][x] = str(count) if count <= 9 else "+"

    for picker in state.pickers:
        x, y = picker.location
        rows[y][x] = "Q" if picker.queue or picker.is_busy else "P"

    for robot in state.robots:
        x, y = robot.location
        rows[y][x] = "R" if robot.state.busy else "r"

    lines = ["".join(row) for row in rows]
    if show_legend:
        lines.append("")
        lines.append(". empty  # wall  o rack  1-9/+ pending items  "
                     "_ rack away  P/Q picker  r/R robot")
    return "\n".join(lines)


def occupancy_counts(state: WarehouseState) -> Dict[str, int]:
    """Summary counts matching the renderer's categories (for tests/UIs)."""
    return {
        "racks_home": sum(1 for r in state.racks
                          if r.phase is RackPhase.STORED),
        "racks_in_transit": sum(1 for r in state.racks
                                if r.phase is RackPhase.IN_TRANSIT),
        "racks_with_pending": sum(1 for r in state.racks if r.pending_items),
        "busy_robots": sum(1 for a in state.robots if a.state.busy),
        "busy_pickers": sum(1 for p in state.pickers
                            if p.is_busy or p.queue),
    }

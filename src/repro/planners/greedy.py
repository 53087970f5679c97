"""The shared greedy "most slack picker first" selection.

Algorithm 1's core loop, factored out because three planners use it: NTP
as its whole strategy, and ATP/EATP as their Bernoulli(δ) *approximation*
branch that seeds the Q-table (Alg. 2 lines 6–9, Alg. 3 line 8).  It asks
the world for the pickers with work
(:meth:`~repro.warehouse.state.WarehouseState.pickers_with_work`) and
reads each picker's selectable racks off the rack column only until the
budget is spent, so a wake never builds the whole selectable list.
"""

from __future__ import annotations

from typing import Callable, List

from ..warehouse.state import WarehouseState
from .base import SelectionEntry


def most_slack_first(state: WarehouseState, budget: int,
                     finish_time: Callable[[int], int]) -> List[SelectionEntry]:
    """Select up to ``budget`` of ``state``'s selectable racks (STORED
    with pending items), most-slack picker first.

    Parameters
    ----------
    state:
        The world whose selectable racks are walked.
    budget:
        Number of idle robots — the dispatch capacity this timestamp.
    finish_time:
        Maps a picker id to its f_p (Eq. 3).

    Ordering is deterministic: pickers ascending by (f_p, id), racks of a
    picker ascending by id.
    """
    entries: List[SelectionEntry] = []
    pickers = sorted(state.pickers_with_work(),
                     key=lambda pid: (finish_time(pid), pid))
    for picker_id in pickers:
        for rack in state.selectable_of_picker(picker_id):
            if len(entries) == budget:
                return entries
            entries.append(SelectionEntry(rack=rack))
    return entries

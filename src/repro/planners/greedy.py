"""The shared greedy "most slack picker first" selection.

Algorithm 1's core loop, factored out because three planners use it: NTP
as its whole strategy, and ATP/EATP as their Bernoulli(δ) *approximation*
branch that seeds the Q-table (Alg. 2 lines 6–9, Alg. 3 line 8).  It reads
the world's per-picker index of selectable racks
(:meth:`~repro.warehouse.state.WarehouseState.selectable_by_picker`), so a
wake sorts the pickers with work and never regroups the racks.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..warehouse.entities import Rack
from .base import SelectionEntry


def most_slack_first(by_picker: Dict[int, List[Rack]], budget: int,
                     finish_time: Callable[[int], int]) -> List[SelectionEntry]:
    """Select up to ``budget`` racks, most-slack picker first.

    Parameters
    ----------
    by_picker:
        Each picker's selectable racks (STORED with pending items),
        ascending by id; a picker without work maps to an empty list or
        is absent.
    budget:
        Number of idle robots — the dispatch capacity this timestamp.
    finish_time:
        Maps a picker id to its f_p (Eq. 3).

    Ordering is deterministic: pickers ascending by (f_p, id), racks of a
    picker ascending by id.
    """
    entries: List[SelectionEntry] = []
    pickers = sorted((pid for pid, racks in by_picker.items() if racks),
                     key=lambda pid: (finish_time(pid), pid))
    for picker_id in pickers:
        for rack in by_picker[picker_id]:
            if len(entries) == budget:
                return entries
            entries.append(SelectionEntry(rack=rack))
    return entries

"""Integer-linear-programming planner — the Boysen et al. baseline [12].

The original formulation assigns racks to processing slots to minimise
completion time in a parts-to-picker system; the paper extends it with
picker status.  Per timestamp we solve the induced **assignment problem**:

    minimise   Σ_{a,r} x_{a,r} · cost(a, r)
    subject to each robot ≤ 1 rack, each rack ≤ 1 robot, x binary

with ``cost(a, r)`` the end-to-end delay estimate of dispatching robot
``a`` to rack ``r`` now — pickup + delivery + queuing (picker status) +
processing + return, mirroring Eq. 2.

The constraint matrix of an assignment problem is totally unimodular, so
its LP relaxation is integral: the shortest-augmenting-path solution *is*
the ILP optimum, found exactly and orders of magnitude faster than by a
generic MILP.  The kernel switch picks the solver: the native ``lsap``,
or ``scipy.optimize.linear_sum_assignment``, imported at its first use.
``lsap`` is SciPy's algorithm rule for rule and returns the same
assignment tie for tie, so a compiled run never loads SciPy and both
switches dispatch alike.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

import numpy as np

from ..pathfinding import _kernel
from ..types import Tick
from ..warehouse.entities import Rack, Robot
from .base import Planner, SelectionEntry


class IlpPlanner(Planner):
    """Per-timestamp optimal robot–rack assignment (extended [12])."""

    name = "ILP"

    _UNPICKLED = Planner._UNPICKLED + ("_rack_table",)

    @cached_property
    def _rack_table(self) -> np.ndarray:
        """Per rack id: home x, home y, d(l_r, l_p), picker id."""
        return np.array(
            [(*rack.home, distance, rack.picker_id) for rack, distance
             in zip(self.state.racks, self._rack_distance)],
            dtype=np.int64).reshape(-1, 4)

    def _select(self, t: Tick, robots: List[Robot]) -> List[SelectionEntry]:
        racks = self.state.selectable_racks()
        cost = self._cost_matrix(racks, robots)
        if _kernel.active is None:
            from scipy.optimize import linear_sum_assignment as solve
        else:
            solve = _kernel.active.lsap
        row_ind, col_ind = solve(cost)
        entries = [SelectionEntry(rack=racks[c], robot=robots[r])
                   for r, c in zip(row_ind, col_ind)]
        return entries

    def _cost_matrix(self, racks: List[Rack],
                     robots: List[Robot]) -> np.ndarray:
        """cost[a, r] = estimated fulfilment-cycle delay of the pairing.

        Mirrors Eq. 2: pickup d(l_a, l_r) + delivery d(l_r, l_p) +
        queuing max{f_p − transport, 0} + processing Σ items + return
        d(l_p, l_r).  Distances are Manhattan (exact on the open layouts,
        cheap everywhere) — the ILP needs a matrix, not a search.
        """
        ids = np.fromiter((rack.rack_id for rack in racks), np.int64,
                          len(racks))
        x, y, d_rp, picker_of = self._rack_table[ids].T
        finish = np.fromiter((picker.finish_time_estimate
                              for picker in self.state.pickers), np.int64)
        batch = np.fromiter((rack.pending_processing_time for rack in racks),
                            np.int64, len(racks))
        here = np.array([robot.location for robot in robots],
                        dtype=np.int64).reshape(-1, 2)
        transport = (np.abs(here[:, :1] - x) + np.abs(here[:, 1:] - y)
                     + d_rp)
        queuing = np.maximum(finish[picker_of] - transport, 0)
        return (transport + queuing + batch + d_rp).astype(np.float64)

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
its LP relaxation is integral: the Hungarian solution *is* the ILP optimum.
We therefore solve with ``scipy.optimize.linear_sum_assignment``, which is
exact and orders of magnitude faster than a generic MILP — the substitution
is value-preserving by construction.  (A generic-MILP path via
``scipy.optimize.milp`` is kept for cross-checking small instances.)
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional

import numpy as np

from ..config import PlannerConfig
from ..types import Tick
from ..warehouse.entities import Rack, Robot
from ..warehouse.state import WarehouseState
from .base import Planner, SelectionEntry


class IlpPlanner(Planner):
    """Per-timestamp optimal robot–rack assignment (extended [12])."""

    name = "ILP"

    #: Instances at or below this robot×rack size may use the generic MILP
    #: cross-check (tests only; the default path is always Hungarian).
    MILP_CROSSCHECK_LIMIT = 64

    def __init__(self, state: WarehouseState,
                 config: Optional[PlannerConfig] = None) -> None:
        super().__init__(state, config)
        # Only this planner calls the solver, so it is loaded here and not
        # with the package — and not in the first ``_select``, where a
        # timed run would pay for it (as a restored checkpoint, which
        # skips ``__init__``, does).
        import scipy.optimize  # noqa: F401

    _UNPICKLED = Planner._UNPICKLED + ("_rack_table",)

    @cached_property
    def _rack_table(self) -> np.ndarray:
        """Per rack id: home x, home y, d(l_r, l_p), picker id."""
        return np.array(
            [(*rack.home, distance, rack.picker_id) for rack, distance
             in zip(self.state.racks, self._rack_distance)],
            dtype=np.int64).reshape(-1, 4)

    def _select(self, t: Tick, racks: List[Rack],
                robots: List[Robot]) -> List[SelectionEntry]:
        from scipy.optimize import linear_sum_assignment

        cost = self._cost_matrix(racks, robots)
        row_ind, col_ind = linear_sum_assignment(cost)
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

    # -- MILP cross-check (exactness witness for tests) -------------------------

    def solve_milp(self, racks: List[Rack],
                   robots: List[Robot]) -> Optional[List[SelectionEntry]]:
        """Solve the same assignment with a generic MILP.

        Returns ``None`` when the instance exceeds
        :data:`MILP_CROSSCHECK_LIMIT`; used by tests to witness that the
        Hungarian fast path is the true ILP optimum.
        """
        from scipy.optimize import Bounds, LinearConstraint, milp

        n_a, n_r = len(robots), len(racks)
        if n_a * n_r > self.MILP_CROSSCHECK_LIMIT:
            return None
        cost = self._cost_matrix(racks, robots).reshape(-1)
        n_vars = n_a * n_r

        rows = []
        for i in range(n_a):  # each robot at most one rack
            row = np.zeros(n_vars)
            row[i * n_r:(i + 1) * n_r] = 1
            rows.append(row)
        for j in range(n_r):  # each rack at most one robot
            row = np.zeros(n_vars)
            row[j::n_r] = 1
            rows.append(row)
        # Maximise the number of assignments, then minimise cost: enforce
        # exactly min(n_a, n_r) assignments, like linear_sum_assignment.
        total = np.ones(n_vars)
        k = min(n_a, n_r)

        constraints = [
            LinearConstraint(np.array(rows), -np.inf, 1),
            LinearConstraint(total[None, :], k, k),
        ]
        result = milp(c=cost, constraints=constraints,
                      integrality=np.ones(n_vars),
                      bounds=Bounds(0, 1))
        if not result.success:
            return None
        chosen = np.flatnonzero(np.round(result.x) == 1)
        entries = []
        for flat in chosen:
            i, j = divmod(int(flat), n_r)
            entries.append(SelectionEntry(rack=racks[j], robot=robots[i]))
        return entries

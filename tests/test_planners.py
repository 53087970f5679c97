"""Unit tests for the five planners' selection logic.

Planner tests drive ``plan`` directly on hand-built worlds so the
selection decisions are fully deterministic and observable.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.config import PlannerConfig, QLearningConfig
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.spatiotemporal_graph import SpatiotemporalGraph
from repro.planners import (AdaptiveTaskPlanner, EfficientAdaptiveTaskPlanner,
                            IlpPlanner, LeastExpirationFirstPlanner,
                            NaiveTaskPlanner, SelectionEntry,
                            most_slack_first)
from repro.warehouse.entities import Item

from tests.conftest import drip_items, make_two_picker_state


COMPILED = build_and_load()


def give_items(state, rack_id, n=1, processing=5, start=0):
    for i in range(n):
        state.deliver_item(Item(item_id=start + i, rack_id=rack_id,
                                arrival=0, processing_time=processing))


#: Instances above this robot x rack size are not cross-checked.
MILP_CROSSCHECK_LIMIT = 64


def solve_milp(planner, racks, robots, limit=MILP_CROSSCHECK_LIMIT):
    """The planner's assignment solved by a generic MILP, or ``None``.

    The witness that the assignment solver finds the true ILP optimum:
    the same cost matrix, each robot at most one rack, each rack at most
    one robot, and exactly min(robots, racks) pairs, as the assignment
    solver makes.  ``None`` above ``limit`` variables or when the MILP
    fails.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    n_a, n_r = len(robots), len(racks)
    if n_a * n_r > limit:
        return None
    cost = planner._cost_matrix(racks, robots).reshape(-1)
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
    constraints = [
        LinearConstraint(np.array(rows), -np.inf, 1),
        LinearConstraint(np.ones((1, n_vars)), min(n_a, n_r),
                         min(n_a, n_r)),
    ]
    result = milp(c=cost, constraints=constraints,
                  integrality=np.ones(n_vars), bounds=Bounds(0, 1))
    if not result.success:
        return None
    return [SelectionEntry(rack=racks[j], robot=robots[i])
            for i, j in (divmod(int(flat), n_r)
                         for flat in np.flatnonzero(np.round(result.x) == 1))]


class TestNaiveTaskPlanner:
    def test_plans_for_all_idle_robots(self):
        state = make_two_picker_state(n_robots=2)
        give_items(state, 2)
        give_items(state, 3, start=10)
        give_items(state, 4, start=20)
        planner = NaiveTaskPlanner(state)
        scheme = planner.plan(0)
        assert len(scheme) == 2  # capped by robots

    def test_most_slack_picker_first(self):
        state = make_two_picker_state(n_robots=1)
        give_items(state, 0)  # picker 0
        give_items(state, 1, start=10)  # picker 1
        state.pickers[0].remaining_current = 100  # picker 0 busy
        planner = NaiveTaskPlanner(state)
        scheme = planner.plan(0)
        assert scheme.rack_ids == (1,)  # picker 1 is most slack

    def test_empty_world_returns_empty(self):
        state = make_two_picker_state()
        scheme = NaiveTaskPlanner(state).plan(0)
        assert len(scheme) == 0

    def test_paths_start_at_plan_time(self):
        state = make_two_picker_state(n_robots=1)
        give_items(state, 5)
        scheme = NaiveTaskPlanner(state).plan(7)
        assert scheme.assignments[0].pickup_path.start_time == 7

    def test_pickup_path_ends_at_rack_home(self):
        state = make_two_picker_state(n_robots=1)
        give_items(state, 5)
        scheme = NaiveTaskPlanner(state).plan(0)
        assert scheme.assignments[0].pickup_path.goal == state.racks[5].home


class TestMostSlackFirst:
    def test_orders_by_finish_time(self):
        state = make_two_picker_state()
        give_items(state, 0)
        give_items(state, 1, start=10)
        finish = {0: 50, 1: 5}
        entries = most_slack_first(state, 2, lambda pid: finish[pid])
        assert entries[0].rack.picker_id == 1

    def test_respects_budget(self):
        state = make_two_picker_state()
        for rack_id in range(4):
            give_items(state, rack_id, start=rack_id * 10)
        entries = most_slack_first(state, 2, lambda pid: 0)
        assert len(entries) == 2


class TestLefPlanner:
    def test_oldest_item_first(self):
        state = make_two_picker_state(n_robots=1)
        state.deliver_item(Item(0, 3, arrival=50, processing_time=5))
        state.deliver_item(Item(1, 4, arrival=10, processing_time=5))
        planner = LeastExpirationFirstPlanner(state)
        scheme = planner.plan(60)
        assert scheme.rack_ids == (4,)

    def test_tie_broken_by_rack_id(self):
        state = make_two_picker_state(n_robots=1)
        state.deliver_item(Item(0, 5, arrival=10, processing_time=5))
        state.deliver_item(Item(1, 2, arrival=10, processing_time=5))
        scheme = LeastExpirationFirstPlanner(state).plan(20)
        assert scheme.rack_ids == (2,)


class TestIlpPlanner:
    @pytest.mark.skipif(COMPILED is None, reason="native kernel unavailable")
    def test_a_compiled_ilp_drain_never_loads_scipy(self):
        # SciPy is the python switch's solver and the test oracle; under
        # the compiled switch the kernel's lsap solves every wake, so
        # neither the package nor a whole ILP run may load it (a fresh
        # interpreter, because this process imported scipy long ago).
        probe = (
            "import sys\n"
            "from repro.pathfinding.st_astar import set_search_kernel\n"
            "from repro.planners import PLANNERS\n"
            "from repro.sim.engine import Simulation\n"
            "from repro.workloads.datasets import make_mini\n"
            "set_search_kernel('compiled')\n"
            "assert 'scipy' not in sys.modules, 'package import loads scipy'\n"
            "state, items = make_mini(n_items=20).build()\n"
            "planner = PLANNERS['ILP'](state)\n"
            "result = Simulation(state, planner, items).run()\n"
            "assert len(result.ledger) > 0 and planner.stats.assignments_emitted\n"
            "assert 'scipy' not in sys.modules, 'the ILP drain loads scipy'\n")
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_assigns_min_of_robots_and_racks(self):
        state = make_two_picker_state(n_robots=2)
        give_items(state, 0)
        planner = IlpPlanner(state)
        scheme = planner.plan(0)
        assert len(scheme) == 1

    def test_cost_matrix_shape_and_sign(self):
        state = make_two_picker_state(n_robots=2)
        give_items(state, 0)
        give_items(state, 1, start=10)
        planner = IlpPlanner(state)
        cost = planner._cost_matrix(state.selectable_racks(),
                                    state.idle_robots())
        assert cost.shape == (2, 2)
        assert (cost >= 0).all()

    def test_hungarian_matches_milp_on_small_instance(self):
        state = make_two_picker_state(n_robots=2)
        give_items(state, 0)
        give_items(state, 1, start=10)
        give_items(state, 2, start=20)
        planner = IlpPlanner(state)
        racks = state.selectable_racks()
        robots = state.idle_robots()
        fast = planner._select(0, robots)
        exact = solve_milp(planner, racks, robots)
        assert exact is not None
        cost = planner._cost_matrix(racks, robots)

        def total(entries):
            rack_index = {r.rack_id: j for j, r in enumerate(racks)}
            robot_index = {a.robot_id: i for i, a in enumerate(robots)}
            return sum(cost[robot_index[e.robot.robot_id],
                            rack_index[e.rack.rack_id]] for e in entries)

        assert total(fast) == pytest.approx(total(exact))

    def test_milp_respects_size_limit(self):
        state = make_two_picker_state(n_robots=2)
        planner = IlpPlanner(state)
        give_items(state, 0)
        assert solve_milp(planner, state.selectable_racks(),
                          state.idle_robots(), limit=0) is None


class TestAtpPlanner:
    def config(self, delta=0.0, epsilon=0.0):
        return PlannerConfig(qlearning=QLearningConfig(delta=delta,
                                                       epsilon=epsilon))

    def test_uses_stgraph_reservation(self):
        state = make_two_picker_state()
        planner = AdaptiveTaskPlanner(state, self.config())
        assert isinstance(planner.reservation, SpatiotemporalGraph)

    def test_dispatches_loaded_rack(self):
        state = make_two_picker_state(n_robots=1)
        give_items(state, 0, n=8)  # heavily loaded -> must dispatch
        planner = AdaptiveTaskPlanner(state, self.config())
        scheme = planner.plan(0)
        assert scheme.rack_ids == (0,)

    def test_defers_single_far_item(self):
        state = make_two_picker_state(n_robots=1)
        give_items(state, 0, n=1)
        # Make the rack far from its picker so deferral wins.
        state.racks[0].home = (15, 0)
        planner = AdaptiveTaskPlanner(state, self.config())
        scheme = planner.plan(0)
        assert len(scheme) == 0

    def test_greedy_branch_selects_like_ntp(self):
        state = make_two_picker_state(n_robots=1)
        give_items(state, 0, n=1)
        state.racks[0].home = (15, 0)  # learned branch would defer
        planner = AdaptiveTaskPlanner(state, self.config(delta=1.0))
        scheme = planner.plan(0)
        assert len(scheme) == 1  # greedy branch dispatches anyway

    def test_q_table_learns_during_planning(self):
        state = make_two_picker_state(n_robots=2)
        give_items(state, 0, n=4)
        give_items(state, 1, n=4, start=10)
        planner = AdaptiveTaskPlanner(state, self.config())
        planner.plan(0)
        assert planner.agent.stats.updates > 0

    def test_facts_reflect_rack(self):
        state = make_two_picker_state()
        give_items(state, 0, n=3, processing=7)
        planner = AdaptiveTaskPlanner(state, PlannerConfig(
            qlearning=QLearningConfig(state_bin_width=1)))
        __, __, delta, n_pending, __ = planner.facts(state.racks[0])
        assert n_pending == 3
        assert delta == 21


class TestEatpPlanner:
    def config(self, **kw):
        ql = QLearningConfig(delta=kw.pop("delta", 0.0),
                             epsilon=kw.pop("epsilon", 0.0))
        return PlannerConfig(qlearning=ql, **kw)

    def test_uses_cdt_reservation(self):
        state = make_two_picker_state()
        planner = EfficientAdaptiveTaskPlanner(state, self.config())
        assert isinstance(planner.reservation, ConflictDetectionTable)

    def test_flip_requesting_respects_k(self):
        state = make_two_picker_state(n_racks=6, n_robots=1)
        # Load only the rack farthest from robot 0; with k=1 the robot
        # probes only its nearest rack and cannot see the loaded one.
        robot_home = state.robots[0].location
        far_rack = max(state.racks,
                       key=lambda r: abs(r.home[0] - robot_home[0])
                       + abs(r.home[1] - robot_home[1]))
        give_items(state, far_rack.rack_id, n=8)
        planner = EfficientAdaptiveTaskPlanner(state, self.config(knn_k=1))
        scheme = planner.plan(0)
        assert len(scheme) == 0

    def test_large_k_sees_everything(self):
        state = make_two_picker_state(n_racks=6, n_robots=1)
        give_items(state, 5, n=8)
        planner = EfficientAdaptiveTaskPlanner(state, self.config(knn_k=6))
        scheme = planner.plan(0)
        assert scheme.rack_ids == (5,)

    def test_one_rack_per_robot(self):
        state = make_two_picker_state(n_racks=6, n_robots=2)
        for rack_id in range(6):
            give_items(state, rack_id, n=8, start=rack_id * 10)
        planner = EfficientAdaptiveTaskPlanner(state, self.config(knn_k=6))
        scheme = planner.plan(0)
        assert len(scheme) == 2

    def test_cache_finisher_used_on_long_runs(self, quiet_learner_config):
        # Covered end-to-end in integration tests; here just ensure the
        # planner exposes the cache and counts finished legs.
        state = make_two_picker_state(n_robots=1)
        give_items(state, 0, n=8)
        planner = EfficientAdaptiveTaskPlanner(state, self.config())
        planner.plan(0)
        assert planner.cache.threshold == planner.config.cache_threshold


class TestPlannerBookkeeping:
    def test_stats_accumulate(self):
        state = make_two_picker_state(n_robots=2)
        give_items(state, 0)
        give_items(state, 1, start=10)
        planner = NaiveTaskPlanner(state)
        planner.plan(0)
        assert planner.stats.schemes_emitted == 1
        assert planner.stats.assignments_emitted == 2
        assert planner.stats.planning_seconds > 0

    def test_end_of_tick_purges_on_cadence(self):
        state = make_two_picker_state(n_robots=1)
        give_items(state, 5)
        planner = NaiveTaskPlanner(state)
        planner.plan(0)
        horizon = planner.config.reservation_horizon
        cadence = planner.PURGE_CADENCE
        t = ((horizon + 100) // cadence + 1) * cadence
        planner.advance(t, t)
        assert planner.reservation.is_free(0, state.racks[5].home)

    def test_advance_span_purges_like_the_tick_loop(self):
        """One span-aware advance() call must leave the reservation in
        the exact state the one-tick advance(t, t) sweep produced."""
        def loaded_planner():
            state = make_two_picker_state(n_robots=1)
            give_items(state, 5)
            planner = NaiveTaskPlanner(state)
            planner.plan(0)
            return planner

        horizon_end = 400
        ticked = loaded_planner()
        for t in range(horizon_end + 1):
            ticked.advance(t, t)
        spanned = loaded_planner()
        spanned.advance(0, horizon_end)
        assert (spanned.reservation.memory_bytes()
                == ticked.reservation.memory_bytes())
        assert spanned.reservation.is_free(0, spanned.state.racks[5].home)

    def test_advance_span_without_cadence_tick_is_a_noop(self):
        state = make_two_picker_state(n_robots=1)
        give_items(state, 5)
        planner = NaiveTaskPlanner(state)
        planner.plan(0)
        before = planner.reservation.memory_bytes()
        cadence = planner.PURGE_CADENCE
        planner.advance(cadence * 20 + 1, cadence * 21 - 1)
        assert planner.reservation.memory_bytes() == before

    def test_memory_bytes_positive(self):
        state = make_two_picker_state()
        assert NaiveTaskPlanner(state).memory_bytes() >= 0

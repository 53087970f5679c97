"""The rack-selection MDP (Sec. V-A, Eq. 4) as the learner runs it: the
bucketed state the planner reads off a rack, the transition the lookahead
bootstraps from, and the decision costs it pays."""

import pytest

from repro.config import QLearningConfig
from repro.planners.atp import AdaptiveTaskPlanner
from repro.rl.mdp import ACTION_REQUEST, ACTION_WAIT
from repro.rl.qlearning import QLearningAgent
from repro.types import manhattan
from tests.conftest import make_two_picker_state, rack_facts


def agent(weight=10.0):
    """A fresh agent: its table is empty, so every q reads 0."""
    return QLearningAgent(QLearningConfig(deferral_weight=weight))


class TestBucketize:
    def test_zero_state(self):
        assert rack_facts()[:2] == (0, 0)

    def test_bucket_boundaries(self):
        assert rack_facts(ap=59, ar=60)[:2] == (0, 1)
        assert rack_facts(ap=60, ar=119)[:2] == (1, 1)

    def test_bin_width_one_is_identity(self):
        assert rack_facts(ap=17, ar=23, width=1)[:2] == (17, 23)


class TestTransition:
    """WAIT leaves the state where it is; REQUEST advances both counters
    by the batch's bucketed processing time δ."""

    def test_wait_keeps_state(self):
        a = agent()
        a.table.set((3, 4), ACTION_WAIT, -40.0)
        a.table.set((3, 4), ACTION_REQUEST, -45.0)
        u_wait = a.lookahead(3, 4, 2, 1, 10)[0]
        assert u_wait == pytest.approx(-10 + a.config.discount * -40.0)

    def test_request_advances_both_counters(self):
        facts = rack_facts(batch=120)
        assert facts[:3] == (0, 0, 2)
        a = agent()
        a.table.set((2, 2), ACTION_WAIT, -70.0)
        a.table.set((2, 2), ACTION_REQUEST, -75.0)
        u_request = a.lookahead(*facts)[1]
        assert u_request == pytest.approx(-facts[4]
                                          + a.config.discount * -70.0)

    def test_small_batch_may_stay_in_bucket(self):
        assert rack_facts(batch=30)[2] == 0


class TestReward:
    """Eq. 4's wait term max{f_p, d} is the planner's overhead fact; on an
    empty table REQUEST pays exactly it (δ carries the batch term)."""

    @staticmethod
    def planner_and_rack():
        state = make_two_picker_state()
        return AdaptiveTaskPlanner(state), state.racks[0]

    def test_eq4_transport_dominated(self):
        # f_p = 0 at a free picker: the wait is the delivery distance.
        planner, rack = self.planner_and_rack()
        distance = manhattan(rack.home,
                             planner.state.pickers[rack.picker_id].location)
        facts = planner.facts(rack)
        assert facts[4] == distance > 0
        assert planner.agent.lookahead(*facts)[1] == -distance

    def test_eq4_queue_dominated(self):
        planner, rack = self.planner_and_rack()
        planner.state.pickers[rack.picker_id].queued_processing = 500
        facts = planner.facts(rack)
        assert facts[4] == 500
        assert planner.agent.lookahead(*facts)[1] == -500

    def test_reward_is_negative(self):
        planner, __ = self.planner_and_rack()
        for rack in planner.state.racks:
            assert planner.agent.lookahead(*planner.facts(rack))[1] < 0


class TestDecisionCosts:
    """On an empty table the utilities are the immediate costs:
    ``u_wait = −deferral_weight · |τ_r|``, ``u_request = −max{f_p, d}``."""

    def test_request_cost_drops_batch_term(self):
        # δ carries the batch; only the overhead max{f_p, d} is paid.
        assert agent().lookahead(0, 0, 16, 1, max(0, 25))[1] == -25
        assert agent().lookahead(0, 0, 16, 1, max(500, 25))[1] == -500

    def test_wait_cost_scales_with_pending(self):
        assert agent().lookahead(0, 0, 0, 1, 10)[0] == -10
        assert agent().lookahead(0, 0, 0, 5, 10)[0] == -50

    def test_wait_cost_weight(self):
        assert agent(weight=1).lookahead(0, 0, 0, 2, 10)[0] == -2

    def test_loaded_rack_near_slack_picker_favours_request(self):
        # Decision boundary: request when |τ| ≳ max{f_p, d} / weight.
        u_wait, u_request = agent().lookahead(0, 0, 0, 5, max(0, 20))
        assert u_request > u_wait

    def test_empty_rack_far_away_favours_wait(self):
        u_wait, u_request = agent().lookahead(0, 0, 0, 1, max(0, 30))
        assert u_wait > u_request

    def test_busy_picker_discourages_request(self):
        busy = agent().lookahead(0, 0, 0, 10, max(400, 20))[1]
        idle = agent().lookahead(0, 0, 0, 10, max(0, 20))[1]
        assert busy < idle

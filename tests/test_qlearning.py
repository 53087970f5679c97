"""Unit tests for the Q-learning agent (Eq. 5 update, lookahead policy)."""

import random

import pytest

from repro.config import QLearningConfig
from repro.rl.mdp import ACTION_REQUEST, ACTION_WAIT
from repro.rl.qlearning import QLearningAgent

#: Facts ``(s0, s1, δ, |τ_r|, max{f_p, d})`` of a rack in state (0, 0)
#: whose batch stays inside its bucket: one item, overhead 20.
ONE_ITEM = (0, 0, 0, 1, 20)


def agent(delta=0.2, epsilon=0.0, seed=3, **kw):
    cfg = QLearningConfig(delta=delta, epsilon=epsilon, **kw)
    return QLearningAgent(cfg, random.Random(seed))


class TestUpdate:
    def test_eq5_single_update(self):
        a = agent()
        td = a.learn(*ONE_ITEM, ACTION_REQUEST)
        # target = c + γ·max q(s') = −max{f_p, d} + 0, old = 0.
        expected_target = -20
        assert td == pytest.approx(expected_target)
        assert a.table.get((0, 0), ACTION_REQUEST) == pytest.approx(
            a.config.learning_rate * expected_target)

    def test_wait_update_uses_deferral_cost(self):
        a = agent()
        a.learn(0, 0, 0, 4, 10, ACTION_WAIT)
        expected = a.config.learning_rate * -a.config.deferral_weight * 4
        assert a.table.get((0, 0), ACTION_WAIT) == pytest.approx(expected)

    def test_updates_counted(self):
        a = agent()
        a.learn(*ONE_ITEM, ACTION_REQUEST)
        a.learn(*ONE_ITEM, ACTION_WAIT, greedy=True)
        assert a.stats.updates == 2
        assert a.stats.greedy_updates == 1

    def test_repeated_updates_converge_to_target(self):
        a = agent(learning_rate=0.5)
        for _ in range(200):
            a.learn(*ONE_ITEM, ACTION_WAIT)
        # Fixed point of q = c_wait + γ·max(q, q_req): with q_req ~ 0
        # frozen, q_wait → c_wait / (1 − γ·…); just assert boundedness
        # and monotone ordering.
        value = a.table.get((0, 0), ACTION_WAIT)
        assert value < 0
        assert value > -10 * a.config.deferral_weight / (1 - a.config.discount)

    def test_memory_reporting(self):
        a = agent()
        before = a.memory_bytes()
        a.learn(*ONE_ITEM, ACTION_REQUEST)
        assert a.memory_bytes() > before


class TestUtilitiesAndPolicy:
    def test_loaded_near_rack_requests(self):
        a = agent()
        u_wait, u_request = a.lookahead(0, 0, 0, 5, 20)
        assert u_request > u_wait
        assert a.decide(0, 0, 0, 5, 20) == ACTION_REQUEST

    def test_single_item_far_rack_waits(self):
        a = agent()
        assert a.decide(0, 0, 0, 1, 50) == ACTION_WAIT

    def test_busy_picker_waits_even_when_loaded(self):
        a = agent()
        assert a.decide(0, 0, 0, 4, max(500, 20)) == ACTION_WAIT

    def test_deep_backlog_eventually_requests(self):
        a = agent()
        assert a.decide(0, 0, 0, 60, max(500, 20)) == ACTION_REQUEST

    def test_tie_prefers_request(self):
        # Fresh state, equal utilities (one item at weight 10 against an
        # overhead of 10): REQUEST, so a cold-start system dispatches
        # instead of deadlocking every rack on WAIT.
        a = agent()
        u_wait, u_request = a.lookahead(5, 5, 0, 1, 10)
        assert u_wait == u_request
        assert a.decide(5, 5, 0, 1, 10) == ACTION_REQUEST

    def test_epsilon_zero_decide_is_greedy(self):
        # ``decide`` is the paper's ε-greedy policy: at ε = 0 it always
        # takes the lookahead's better action and never explores.
        a = agent(epsilon=0.0)
        facts = (0, 0, 0, 1, 50)
        u_wait, u_request = a.lookahead(*facts)
        greedy = ACTION_REQUEST if u_request >= u_wait else ACTION_WAIT
        assert all(a.decide(*facts) == greedy for _ in range(20))
        assert a.stats.explored_actions == 0

    def test_epsilon_is_the_exploration_rate(self):
        a = agent(epsilon=0.5)
        facts = (0, 0, 0, 1, 50)
        for _ in range(400):
            a.decide(*facts)
        assert 150 < a.stats.explored_actions < 250

    def test_epsilon_one_explores(self):
        a = agent(epsilon=1.0)
        actions = {a.decide(0, 0, 0, 1, 50) for _ in range(50)}
        assert actions == {ACTION_WAIT, ACTION_REQUEST}
        assert a.stats.explored_actions > 0

    def test_priority_orders_by_request_margin(self):
        # ATP examines racks by u_wait − u_request ascending.
        a = agent()
        u_wait, u_request = a.lookahead(0, 0, 0, 8, 10)
        urgent = u_wait - u_request
        u_wait, u_request = a.lookahead(0, 0, 0, 1, 40)
        lazy = u_wait - u_request
        assert urgent < lazy  # urgent racks examined first


class TestBernoulliDelta:
    def test_delta_zero_never_approximates(self):
        a = agent(delta=0.0)
        assert not any(a.use_approximation() for _ in range(100))

    def test_delta_one_always_approximates(self):
        a = agent(delta=1.0)
        assert all(a.use_approximation() for _ in range(100))

    def test_delta_half_mixes(self):
        a = agent(delta=0.5)
        draws = [a.use_approximation() for _ in range(500)]
        assert 150 < sum(draws) < 350


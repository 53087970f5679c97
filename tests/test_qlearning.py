"""Unit tests for the Q-learning agent (Eq. 5 update, lookahead policy)."""

import random

import pytest

from repro.config import QLearningConfig
from repro.rl.mdp import (ACTION_REQUEST, ACTION_WAIT, RackObservation,
                          bucketize, request_cost, wait_cost)
from repro.rl.qlearning import QLearningAgent


def obs(ap=0, ar=0, fp=0, d=10, batch=30, n=1):
    return RackObservation(picker_accumulated=ap, rack_accumulated=ar,
                           picker_finish_time=fp, distance_to_picker=d,
                           batch_processing_time=batch, n_pending=n)


def agent(delta=0.2, epsilon=0.0, seed=3, **kw):
    cfg = QLearningConfig(delta=delta, epsilon=epsilon, **kw)
    return QLearningAgent(cfg, random.Random(seed))


class TestUpdate:
    def test_eq5_single_update(self):
        a = agent()
        observation = obs(fp=0, d=20, n=1)
        td = a.update(observation, ACTION_REQUEST)
        # target = c + γ·max q(s') = request_cost + 0, old = 0.
        expected_target = request_cost(observation)
        assert td == pytest.approx(expected_target)
        state = bucketize(observation, a.config.state_bin_width)
        assert a.table.get(state, ACTION_REQUEST) == pytest.approx(
            a.config.learning_rate * expected_target)

    def test_wait_update_uses_deferral_cost(self):
        a = agent()
        observation = obs(n=4)
        a.update(observation, ACTION_WAIT)
        state = bucketize(observation, a.config.state_bin_width)
        expected = a.config.learning_rate * wait_cost(
            observation, a.config.deferral_weight)
        assert a.table.get(state, ACTION_WAIT) == pytest.approx(expected)

    def test_updates_counted(self):
        a = agent()
        a.update(obs(), ACTION_REQUEST)
        a.update(obs(), ACTION_WAIT, greedy=True)
        assert a.stats.updates == 2
        assert a.stats.greedy_updates == 1

    def test_repeated_updates_converge_to_target(self):
        a = agent(learning_rate=0.5)
        observation = obs(fp=0, d=20, n=1)
        state = bucketize(observation, a.config.state_bin_width)
        for _ in range(200):
            a.update(observation, ACTION_WAIT)
        # Fixed point of q = c_wait + γ·max(q, q_req): with q_req ~ 0
        # frozen, q_wait → c_wait / (1 − γ·…); just assert boundedness
        # and monotone ordering.
        value = a.table.get(state, ACTION_WAIT)
        assert value < 0
        assert value > -10 * a.config.deferral_weight / (1 - a.config.discount)

    def test_memory_reporting(self):
        a = agent()
        before = a.memory_bytes()
        a.update(obs(), ACTION_REQUEST)
        assert a.memory_bytes() > before


class TestUtilitiesAndPolicy:
    def test_loaded_near_rack_requests(self):
        a = agent()
        u_wait, u_request = a.utilities(obs(fp=0, d=20, n=5))
        assert u_request > u_wait
        assert a.choose_action(obs(fp=0, d=20, n=5)) == ACTION_REQUEST

    def test_single_item_far_rack_waits(self):
        a = agent()
        assert a.choose_action(obs(fp=0, d=50, n=1)) == ACTION_WAIT

    def test_busy_picker_waits_even_when_loaded(self):
        a = agent()
        assert a.choose_action(obs(fp=500, d=20, n=4)) == ACTION_WAIT

    def test_deep_backlog_eventually_requests(self):
        a = agent()
        assert a.choose_action(obs(fp=500, d=20, n=60)) == ACTION_REQUEST

    def test_epsilon_zero_decide_is_greedy(self):
        # ``decide`` is the paper's ε-greedy policy: at ε = 0 it always
        # takes the lookahead's better action and never explores.
        a = agent(epsilon=0.0)
        facts = a.facts(obs(fp=0, d=50, n=1))
        u_wait, u_request = a.lookahead(*facts)
        greedy = ACTION_REQUEST if u_request >= u_wait else ACTION_WAIT
        assert all(a.decide(*facts) == greedy for _ in range(20))
        assert a.stats.explored_actions == 0

    def test_epsilon_is_the_exploration_rate(self):
        a = agent(epsilon=0.5)
        facts = a.facts(obs(fp=0, d=50, n=1))
        for _ in range(400):
            a.decide(*facts)
        assert 150 < a.stats.explored_actions < 250

    def test_epsilon_one_explores(self):
        a = agent(epsilon=1.0)
        actions = {a.choose_action(obs(fp=0, d=50, n=1)) for _ in range(50)}
        assert actions == {ACTION_WAIT, ACTION_REQUEST}
        assert a.stats.explored_actions > 0

    def test_priority_orders_by_request_margin(self):
        a = agent()
        urgent = a.priority(obs(fp=0, d=10, n=8))
        lazy = a.priority(obs(fp=0, d=40, n=1))
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


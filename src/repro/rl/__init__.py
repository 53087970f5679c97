"""Reinforcement-learning rack selection: MDP, Q-table, Q-learning, policies."""

from .mdp import (ACTION_REQUEST, ACTION_WAIT, ACTIONS, RackObservation,
                  RackState, bucketize, reward, transition)
from .policy import EpsilonGreedyPolicy
from .qlearning import LearnerStats, QLearningAgent
from .qtable import QTable

__all__ = [
    "ACTIONS",
    "ACTION_REQUEST",
    "ACTION_WAIT",
    "EpsilonGreedyPolicy",
    "LearnerStats",
    "QLearningAgent",
    "QTable",
    "RackObservation",
    "RackState",
    "bucketize",
    "reward",
    "transition",
]

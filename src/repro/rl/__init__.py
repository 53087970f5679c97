"""Reinforcement-learning rack selection: MDP, Q-table, ε-greedy Q-learning."""

from .mdp import ACTION_REQUEST, ACTION_WAIT, ACTIONS, RackState
from .qlearning import LearnerStats, QLearningAgent
from .qtable import QTable

__all__ = [
    "ACTIONS",
    "ACTION_REQUEST",
    "ACTION_WAIT",
    "LearnerStats",
    "QLearningAgent",
    "QTable",
    "RackState",
]

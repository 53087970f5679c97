"""Validation tests for the configuration dataclasses."""

import pytest

from repro.config import PlannerConfig, QLearningConfig, SimulationConfig
from repro.errors import ConfigurationError


class TestQLearningConfig:
    def test_defaults_are_the_paper_defaults(self):
        cfg = QLearningConfig()
        assert cfg.delta == 0.2
        assert cfg.epsilon == 0.1
        assert cfg.learning_rate == 0.1

    @pytest.mark.parametrize("field,value", [
        ("delta", -0.1), ("delta", 1.5),
        ("epsilon", -0.01), ("epsilon", 2.0),
        ("learning_rate", 0.0), ("learning_rate", 1.5),
        ("discount", -0.2), ("discount", 1.0),
        ("state_bin_width", 0),
        ("deferral_weight", 0.0), ("deferral_weight", -3.0),
    ])
    def test_rejects_out_of_domain(self, field, value):
        with pytest.raises(ConfigurationError):
            QLearningConfig(**{field: value})

    def test_boundary_values_accepted(self):
        QLearningConfig(delta=0.0, epsilon=0.0, learning_rate=1.0,
                        discount=0.0, state_bin_width=1)
        QLearningConfig(delta=1.0, epsilon=1.0)


class TestPlannerConfig:
    def test_defaults(self):
        cfg = PlannerConfig()
        assert cfg.knn_k == 8
        assert cfg.cache_threshold == 12
        assert cfg.qlearning == QLearningConfig()

    @pytest.mark.parametrize("field,value", [
        ("knn_k", 0), ("cache_threshold", -1),
        ("max_search_expansions", 0), ("reservation_horizon", 0),
    ])
    def test_rejects_out_of_domain(self, field, value):
        with pytest.raises(ConfigurationError):
            PlannerConfig(**{field: value})

    def test_retired_knob_is_not_accepted(self):
        # The windowed tier's horizon went with the tier (PR 21).
        with pytest.raises(TypeError):
            PlannerConfig(search_horizon=8)

    def test_with_returns_modified_copy(self):
        cfg = PlannerConfig()
        other = cfg.with_(knn_k=3)
        assert other.knn_k == 3
        assert cfg.knn_k == 8
        assert other.cache_threshold == cfg.cache_threshold

    def test_frozen(self):
        with pytest.raises(Exception):
            PlannerConfig().knn_k = 2


class TestSimulationConfig:
    def test_defaults(self):
        cfg = SimulationConfig()
        assert cfg.metrics_checkpoints == 10
        assert not cfg.record_bottleneck_trace
        assert not cfg.collect_paths

    @pytest.mark.parametrize("field,value", [
        ("max_ticks", 0), ("metrics_checkpoints", 0),
    ])
    def test_rejects_out_of_domain(self, field, value):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**{field: value})

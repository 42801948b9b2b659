"""ServingConfig: validation, and the built-in defaults a service falls back to."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serving import InferenceService, ServingConfig


class TestValidation:
    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.max_batch_size >= 1
        assert 0 < config.shed_watermark <= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_wait_ms": -1.0},
            {"queue_capacity": 0},
            {"shed_watermark": 0.0},
            {"shed_watermark": 1.5},
            {"deadline_ms": 0.0},
            {"max_retries": -1},
            {"retry_backoff_ms": -1.0},
            {"retry_backoff_factor": 0.5},
            {"breaker_threshold": 0},
            {"breaker_cooldown_ms": -1.0},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            ServingConfig(**kwargs)

    def test_shed_depth_from_watermark(self):
        config = ServingConfig(queue_capacity=100, shed_watermark=0.75)
        assert config.shed_depth == 75
        # Never zero — a positive-capacity queue must admit something.
        tiny = ServingConfig(queue_capacity=1, shed_watermark=0.5)
        assert tiny.shed_depth == 1


class TestServiceDefault:
    def test_service_without_config_uses_built_in_defaults(
        self, registry, tiny_corpus
    ):
        service = InferenceService(registry, tiny_corpus.vocabulary)
        assert service.config == ServingConfig()

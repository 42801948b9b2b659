"""Topic coherence under the percentage-of-topics protocol."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.metrics import (
    NpmiMatrix,
    coherence_by_percentage,
    topic_coherence,
    topic_npmi_scores,
)
from repro.metrics.coherence import top_word_ids


@pytest.fixture
def block_npmi():
    """Two word communities: high NPMI inside, -1 across."""
    m = -np.ones((6, 6))
    m[:3, :3] = 0.8
    m[3:, 3:] = 0.8
    np.fill_diagonal(m, 1.0)
    return NpmiMatrix(m)


@pytest.fixture
def topics():
    """Topic 0 = community A (coherent), topic 1 = mixed (incoherent)."""
    t = np.zeros((2, 6))
    t[0, :3] = 1 / 3
    t[1, [0, 3, 4]] = 1 / 3
    return t


class TestTopWordIds:
    def test_order(self):
        beta = np.array([[0.1, 0.5, 0.4]])
        np.testing.assert_array_equal(top_word_ids(beta, 2), [[1, 2]])

    def test_validation(self):
        with pytest.raises(ShapeError):
            top_word_ids(np.zeros(3), 2)
        with pytest.raises(ConfigError):
            top_word_ids(np.zeros((2, 3)), 5)


class TestPerTopicScores:
    def test_coherent_topic_scores_higher(self, topics, block_npmi):
        scores = topic_npmi_scores(topics, block_npmi, top_n=3)
        assert scores[0] > scores[1]
        assert scores[0] == pytest.approx(0.8)
        # mixed topic: pairs (0,3), (0,4) = -1, (3,4) = 0.8
        assert scores[1] == pytest.approx((0.8 - 1.0 - 1.0) / 3)


class TestPercentageProtocol:
    def test_smaller_percentage_keeps_best(self, topics, block_npmi):
        at_50 = topic_coherence(topics, block_npmi, percentage=0.5, top_n=3)
        at_100 = topic_coherence(topics, block_npmi, percentage=1.0, top_n=3)
        assert at_50 >= at_100
        assert at_50 == pytest.approx(0.8)

    def test_series_monotone_nonincreasing(self, tiny_npmi, rng):
        beta = rng.dirichlet(np.ones(tiny_npmi.vocab_size) * 0.05, size=12)
        series = coherence_by_percentage(beta, tiny_npmi)
        values = [series[p] for p in sorted(series)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_series_keys(self, topics, block_npmi):
        series = coherence_by_percentage(
            topics, block_npmi, percentages=(0.5, 1.0), top_n=3
        )
        assert set(series) == {0.5, 1.0}

    def test_invalid_percentage(self, topics, block_npmi):
        with pytest.raises(ConfigError):
            topic_coherence(topics, block_npmi, percentage=0.0)
        with pytest.raises(ConfigError):
            coherence_by_percentage(topics, block_npmi, percentages=(1.5,))

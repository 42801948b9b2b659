"""Topic coherence under the paper's evaluation protocol.

"Topic coherence measures the average NPMI over the top K_TC words of the
selected topics" with K_TC = 10, and — following NSTM — scores are reported
as the average over the *top p% of topics ranked by their own NPMI*, for p
from 10% to 100% (Figure 2's horizontal axis).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.metrics.npmi import NpmiMatrix

DEFAULT_TOP_WORDS = 10
DEFAULT_PERCENTAGES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def top_word_ids(topic_word: np.ndarray, top_n: int) -> np.ndarray:
    """Ids of the ``top_n`` most probable words per topic, ``(K, top_n)``."""
    topic_word = np.asarray(topic_word)
    if topic_word.ndim != 2:
        raise ShapeError(f"topic-word matrix must be 2-D, got {topic_word.shape}")
    if top_n > topic_word.shape[1]:
        raise ConfigError(
            f"top_n={top_n} exceeds vocabulary size {topic_word.shape[1]}"
        )
    order = np.argsort(-topic_word, axis=1)
    return order[:, :top_n]


def topic_npmi_scores(
    topic_word: np.ndarray,
    npmi: NpmiMatrix,
    top_n: int = DEFAULT_TOP_WORDS,
) -> np.ndarray:
    """Per-topic coherence: mean pairwise NPMI over each topic's top words."""
    tops = top_word_ids(topic_word, top_n)
    return np.array([npmi.mean_pairwise(ids) for ids in tops])


def topic_coherence(
    topic_word: np.ndarray,
    npmi: NpmiMatrix,
    percentage: float = 1.0,
    top_n: int = DEFAULT_TOP_WORDS,
) -> float:
    """Average NPMI coherence over the top ``percentage`` of topics."""
    scores = topic_npmi_scores(topic_word, npmi, top_n=top_n)
    k = topic_word.shape[0]
    n_selected = max(1, int(round(k * percentage)))
    selected = np.sort(scores)[::-1][:n_selected]
    return float(selected.mean())


def coherence_by_percentage(
    topic_word: np.ndarray,
    npmi: NpmiMatrix,
    percentages: Sequence[float] = DEFAULT_PERCENTAGES,
    top_n: int = DEFAULT_TOP_WORDS,
) -> dict[float, float]:
    """The Figure-2 coherence series: ``{percentage: coherence}``.

    Computes per-topic scores once and reuses them for all percentages.
    """
    scores = np.sort(topic_npmi_scores(topic_word, npmi, top_n=top_n))[::-1]
    k = scores.size
    result: dict[float, float] = {}
    for p in percentages:
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"percentage must be in (0, 1], got {p}")
        n_selected = max(1, int(round(k * p)))
        result[p] = float(scores[:n_selected].mean())
    return result

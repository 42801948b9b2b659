"""NTM-R — coherence-aware neural topic modeling (Ding et al., 2018).

Adds a differentiable topic-coherence surrogate built from *word
embeddings* to the ProdLDA objective: each topic should concentrate its
mass on words whose embeddings agree with the topic's own (probability-
weighted) embedding centroid.  The paper uses NTM-R as the representative
"coherence-only objective" baseline — it optimizes coherence but has no
notion of cross-topic diversity.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.models.base import NTMConfig
from repro.models.prodlda import ProdLDA
from repro.objectives.base import ObjectiveTerm
from repro.objectives.baselines import EmbeddingCoherenceObjective


class NTMR(ProdLDA):
    """ProdLDA + embedding-based coherence regularizer.

    Parameters
    ----------
    coherence_weight:
        Strength of the (negative) coherence reward added to the loss.
    """

    def __init__(
        self,
        vocab_size: int,
        config: NTMConfig,
        word_embeddings: np.ndarray,
        coherence_weight: float = 5.0,
    ):
        super().__init__(vocab_size, config)
        rows = np.shape(word_embeddings)[0]
        if rows != vocab_size:
            raise ShapeError(f"embeddings rows {rows} != vocab size {vocab_size}")
        self._coherence = EmbeddingCoherenceObjective(word_embeddings)
        self.coherence_weight = coherence_weight

    def build_objectives(self):
        """ELBO + the coherence reward as the ``embedding_coherence`` term."""
        stack = super().build_objectives()
        stack.terms.append(
            ObjectiveTerm(
                "embedding_coherence",
                self._coherence,
                weight=self.coherence_weight,
            )
        )
        return stack

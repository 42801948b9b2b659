"""ECRTM — embedding clustering regularization topic model (Wu et al., 2023).

The most recent related work the paper cites (§II.A): ECRTM "avoids the
collapsing of topic embeddings" by forcing each topic embedding to be the
center of a distinct cluster of word embeddings, formulated as optimal
transport between topic embeddings and word embeddings with a uniform
topic marginal.  Included here as an optional extra baseline beyond the
paper's Figure-2 lineup.

Implementation: ETM decoder + a Sinkhorn-based clustering regularizer
transporting the word-embedding mass to topic embeddings under the uniform
topic marginal — collapsed topics cannot jointly absorb their 1/K shares,
so the transport cost pushes them apart.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import NTMConfig
from repro.models.etm import ETM
from repro.objectives.base import ObjectiveTerm
from repro.objectives.baselines import ClusteringRegularizerObjective
from repro.ot.costs import euclidean_cost_matrix
from repro.ot.sinkhorn import sinkhorn_divergence_loss
from repro.tensor.tensor import Tensor


class ECRTM(ETM):
    """ETM + embedding clustering regularization.

    Parameters
    ----------
    ecr_weight:
        Weight of the clustering-transport term.
    sinkhorn_epsilon / sinkhorn_iterations:
        Entropic OT solver knobs for the regularizer.
    """

    def __init__(
        self,
        vocab_size: int,
        config: NTMConfig,
        word_embeddings: np.ndarray,
        ecr_weight: float = 3.0,
        sinkhorn_epsilon: float = 0.15,
        sinkhorn_iterations: int = 15,
    ):
        super().__init__(vocab_size, config, word_embeddings)
        self.ecr_weight = ecr_weight
        self.sinkhorn_epsilon = sinkhorn_epsilon
        self.sinkhorn_iterations = sinkhorn_iterations

    def clustering_regularizer(self) -> Tensor:
        """OT(words -> topics) with uniform marginals in embedding space."""
        cost = euclidean_cost_matrix(self.rho, self.topic_embeddings)  # (V, K)
        v, k = cost.shape
        word_marginal = Tensor(np.full((1, v), 1.0 / v))
        topic_marginal = Tensor(np.full((1, k), 1.0 / k))
        return sinkhorn_divergence_loss(
            cost,
            word_marginal,
            topic_marginal,
            epsilon=self.sinkhorn_epsilon,
            n_iterations=self.sinkhorn_iterations,
        )

    def build_objectives(self):
        """ELBO + the clustering regularizer as the ``ecr`` term."""
        stack = super().build_objectives()
        stack.terms.append(
            ObjectiveTerm(
                "ecr", ClusteringRegularizerObjective(), weight=self.ecr_weight
            )
        )
        return stack

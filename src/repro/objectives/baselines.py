"""The regularizers of the ECRTM, NTM-R and VTMRL baselines as objectives.

Each of these terms is bound to state its model owns — ECRTM's topic and
word embeddings, VTMRL's noise stream and REINFORCE baseline — so the
model declares it in ``build_objectives`` (under the term names ``ecr``,
``embedding_coherence`` and ``reinforce``) rather than through a registry
spec.  The models set each term's stack weight (``ecr_weight``,
``coherence_weight``, ``reward_weight``); the objectives return the
unweighted term.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.objectives.base import BatchContext, Objective
from repro.tensor.dtypes import get_default_dtype
from repro.tensor.tensor import Tensor, stack

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.metrics.npmi import NpmiMatrix


class ClusteringRegularizerObjective(Objective):
    """ECRTM's embedding-clustering transport cost.

    Evaluates the model's ``clustering_regularizer()`` — optimal transport
    from word embeddings to topic embeddings under a uniform topic
    marginal — which reads the model's own embedding parameters.
    """

    name = "ecr"

    def term_on_batch(self, model, batch, ctx: BatchContext):
        return model.clustering_regularizer(), {}


class EmbeddingCoherenceObjective(Objective):
    """NTM-R's negative expected word-to-centroid cosine agreement.

    centroid_k = normalize(β_k ρ);  coherence = Σ_k β_k · (ρ centroid_k)

    ``word_embeddings`` are row-normalized once, in the policy dtype, and
    stay frozen.
    """

    name = "embedding_coherence"

    def __init__(self, word_embeddings: np.ndarray):
        emb = np.asarray(word_embeddings, dtype=get_default_dtype())
        norms = np.linalg.norm(emb, axis=1, keepdims=True) + 1e-12
        self.embeddings = Tensor(emb / norms)

    def loss(self, beta: Tensor) -> Tensor:
        centroids = beta @ self.embeddings  # (K, e)
        norm = ((centroids * centroids).sum(axis=1, keepdims=True) + 1e-12).sqrt()
        centroids = centroids / norm
        agreement = (beta * (centroids @ self.embeddings.T)).sum(axis=1)
        return -agreement.mean()

    def term_on_batch(self, model, batch, ctx: BatchContext):
        return self.loss(ctx.beta), {}


class ReinforceObjective(Objective):
    """VTMRL's score-function (REINFORCE) NPMI reward.

    Per batch, samples ``sample_words`` words per topic by hard Gumbel
    top-k on β, rewards each topic with the mean pairwise NPMI of its
    sample, and returns −mean_k[(r_k − b) Σ_w log β_k,w].  The noise comes
    from the model's own ``_rng`` (the term adds no RNG stream), and the
    running-mean baseline ``b`` lives in the model's ``reward_baseline``
    buffer, so checkpoints and the guard's restore carry it.
    """

    name = "reinforce"
    #: Momentum of the running-mean reward baseline.
    MOMENTUM = 0.9

    def __init__(self, npmi: "NpmiMatrix", sample_words: int = 10):
        self.npmi = npmi
        self.sample_words = sample_words

    def sample_topic_words(
        self, rng: np.random.Generator, beta_data: np.ndarray
    ) -> np.ndarray:
        """Hard Gumbel-top-k word sample per topic, ``(K, sample_words)``."""
        gumbel = rng.gumbel(size=beta_data.shape)
        keys = np.log(beta_data + 1e-12) + gumbel
        return np.argsort(-keys, axis=1)[:, : self.sample_words]

    def rewards(self, samples: np.ndarray) -> np.ndarray:
        """Mean pairwise NPMI of each topic's sampled words."""
        return np.array([self.npmi.mean_pairwise(row) for row in samples])

    def term_on_batch(self, model, batch, ctx: BatchContext):
        beta = ctx.beta
        samples = self.sample_topic_words(model._rng, beta.data)
        rewards = self.rewards(samples)
        baseline = model.reward_baseline
        advantage = rewards - baseline
        baseline[...] = self.MOMENTUM * baseline + (1.0 - self.MOMENTUM) * float(
            rewards.mean()
        )
        log_beta = (beta + 1e-12).log()
        terms = [
            log_beta[topic][Tensor(samples[topic])].sum() * float(advantage[topic])
            for topic in range(samples.shape[0])
        ]
        return -stack(terms).mean(), {}

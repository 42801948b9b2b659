"""ECRTM, NTM-R and VTMRL declare their regularizers as stack terms, bitwise.

Each model's regularizer used to live in an ``extra_loss`` hook override;
it is now a named objective term (``ecr``, ``embedding_coherence``,
``reinforce``).  The ``_Legacy*`` subclasses below carry the removed hook
bodies verbatim — with the state those bodies read (NTM-R's normalized
embeddings, VTMRL's float baseline and its sampler/reward helpers) — on
top of the legacy ``loss_on_batch`` body from ``test_stack``.  Per batch
and over a whole fit, in float32 and float64, the stacked model must
match its legacy twin bitwise: loss, every legacy parts key, gradients,
parameters, the RNG stream and VTMRL's running-mean baseline, including
a disable-and-re-enable of the term.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.models import ECRTM, NTMR, VTMRL
from repro.tensor.dtypes import default_dtype, get_default_dtype
from repro.tensor.tensor import Tensor
from repro.training.trainer import Trainer
from tests.objectives.test_stack import _assert_bitwise_batch, _LegacyLossMixin


class _LegacyECRTM(_LegacyLossMixin, ECRTM):
    def extra_loss(self, theta, beta, bow):
        return self.clustering_regularizer() * self.ecr_weight


class _LegacyNTMR(_LegacyLossMixin, NTMR):
    def __init__(self, vocab_size, config, word_embeddings, **kwargs):
        super().__init__(vocab_size, config, word_embeddings, **kwargs)
        emb = np.asarray(word_embeddings, dtype=get_default_dtype())
        norms = np.linalg.norm(emb, axis=1, keepdims=True) + 1e-12
        self._embeddings = Tensor(emb / norms)  # frozen

    def extra_loss(self, theta, beta, bow):
        """Negative expected word-to-centroid cosine agreement.

        centroid_k = normalize(β_k ρ);  coherence = Σ_k β_k · (ρ centroid_k)
        """
        centroids = beta @ self._embeddings  # (K, e)
        norm = ((centroids * centroids).sum(axis=1, keepdims=True) + 1e-12).sqrt()
        centroids = centroids / norm
        agreement = (beta * (centroids @ self._embeddings.T)).sum(axis=1)
        return -agreement.mean() * self.coherence_weight


class _LegacyVTMRL(_LegacyLossMixin, VTMRL):
    def __init__(self, vocab_size, config, npmi, **kwargs):
        super().__init__(vocab_size, config, npmi, **kwargs)
        self._npmi = npmi
        self._baseline = 0.0
        self._baseline_momentum = 0.9

    def _sample_topic_words(self, beta_data: np.ndarray) -> np.ndarray:
        """Hard Gumbel-top-k word sample per topic, ``(K, sample_words)``."""
        gumbel = self._rng.gumbel(size=beta_data.shape)
        keys = np.log(beta_data + 1e-12) + gumbel
        return np.argsort(-keys, axis=1)[:, : self.sample_words]

    def _reward(self, samples: np.ndarray) -> np.ndarray:
        """Mean pairwise NPMI of each topic's sampled words."""
        return np.array([self._npmi.mean_pairwise(row) for row in samples])

    def extra_loss(self, theta, beta, bow):
        samples = self._sample_topic_words(beta.data)
        rewards = self._reward(samples)
        advantage = rewards - self._baseline
        self._baseline = (
            self._baseline_momentum * self._baseline
            + (1.0 - self._baseline_momentum) * float(rewards.mean())
        )
        # REINFORCE: -E[(r - b) * Σ log β_k,w] over the sampled words.
        log_beta = (beta + 1e-12).log()
        k = samples.shape[0]
        terms = []
        for topic in range(k):
            log_probs = log_beta[topic][Tensor(samples[topic])]
            terms.append(log_probs.sum() * float(advantage[topic]))
        from repro.tensor.tensor import stack

        policy = stack(terms).mean()
        return -policy * self.reward_weight


#: model name -> (stacked class, legacy class, term name)
CASES = {
    "ecrtm": (ECRTM, _LegacyECRTM, "ecr"),
    "ntmr": (NTMR, _LegacyNTMR, "embedding_coherence"),
    "vtmrl": (VTMRL, _LegacyVTMRL, "reinforce"),
}


def _build(name, cls, corpus, config, embeddings, npmi):
    if name == "vtmrl":
        return cls(corpus.vocab_size, config, npmi)
    return cls(corpus.vocab_size, config, embeddings.vectors)


def _assert_same_state(stacked, legacy) -> None:
    assert stacked._rng.bit_generator.state == legacy._rng.bit_generator.state
    if isinstance(stacked, VTMRL):
        assert stacked.reward_baseline.item() == legacy._baseline


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_batches_match_the_legacy_hook(
    name, dtype, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
):
    stacked_cls, legacy_cls, term = CASES[name]
    bow = tiny_corpus.bow_matrix()
    with default_dtype(dtype):
        args = (tiny_corpus, fast_config, tiny_embeddings, tiny_npmi)
        stacked = _build(name, stacked_cls, *args)
        legacy = _build(name, legacy_cls, *args)
        assert stacked.objectives.term_names() == (term,)
        for start in (0, 24, 48):  # the term is on: streams stay aligned
            _assert_bitwise_batch(stacked, legacy, bow[start : start + 24])
            _assert_same_state(stacked, legacy)
        stacked.objectives.set_enabled(term, False)
        legacy.extra_loss_enabled = False
        _assert_bitwise_batch(stacked, legacy, bow[72:96])  # ELBO only
        _assert_same_state(stacked, legacy)
        stacked.objectives.set_enabled(term, True)
        legacy.extra_loss_enabled = True
        _assert_bitwise_batch(stacked, legacy, bow[96:120])  # re-enabled
        _assert_same_state(stacked, legacy)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_training_matches_the_legacy_hook(
    name, dtype, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
):
    stacked_cls, legacy_cls, _ = CASES[name]
    config = replace(fast_config, epochs=2)
    with default_dtype(dtype):
        args = (tiny_corpus, config, tiny_embeddings, tiny_npmi)
        stacked = Trainer().fit(_build(name, stacked_cls, *args), tiny_corpus)
        legacy = Trainer().fit(_build(name, legacy_cls, *args), tiny_corpus)
    for new_row, old_row in zip(stacked.history, legacy.history, strict=True):
        for key in ("rec", "kl", "extra", "total", "grad_norm"):
            assert new_row[key] == old_row[key], key
    new_params = dict(stacked.named_parameters())
    for param_name, param in legacy.named_parameters():
        np.testing.assert_array_equal(new_params[param_name].data, param.data)
    _assert_same_state(stacked, legacy)

"""NTM-R, VTMRL and CLNTM: the interpretability-aware baselines."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.models import CLNTM, NTMR, VTMRL
from repro.tensor import Tensor


class TestNTMR:
    def test_requires_matching_embeddings(self, fast_config):
        with pytest.raises(ShapeError):
            NTMR(10, fast_config, np.zeros((9, 8)))

    def test_extra_loss_rewards_embedding_coherent_topics(
        self, tiny_corpus, tiny_embeddings, fast_config
    ):
        model = NTMR(
            tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors
        )
        rho = tiny_embeddings.vectors
        unit = rho / (np.linalg.norm(rho, axis=1, keepdims=True) + 1e-12)
        # build a "coherent" beta: each topic = one word's neighbourhood
        sims = unit @ unit.T
        coherent = np.exp(sims[: fast_config.num_topics] * 20.0)
        coherent /= coherent.sum(axis=1, keepdims=True)
        flat = np.full(
            (fast_config.num_topics, tiny_corpus.vocab_size),
            1.0 / tiny_corpus.vocab_size,
        )
        term = model.objectives.term("embedding_coherence")
        assert term.weight == model.coherence_weight
        loss_coherent = term.objective.loss(Tensor(coherent)).item()
        loss_flat = term.objective.loss(Tensor(flat)).item()
        assert loss_coherent < loss_flat

    def test_trains_and_produces_topics(self, tiny_corpus, tiny_embeddings, fast_config):
        model = NTMR(tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors)
        model.fit(tiny_corpus)
        assert model.topic_word_matrix().shape[0] == fast_config.num_topics


class TestVTMRL:
    def test_requires_matching_npmi(self, fast_config, tiny_npmi):
        with pytest.raises(ShapeError):
            VTMRL(tiny_npmi.vocab_size + 1, fast_config, tiny_npmi)

    def test_reward_is_mean_pairwise_npmi(self, tiny_corpus, tiny_npmi, fast_config):
        model = VTMRL(tiny_corpus.vocab_size, fast_config, tiny_npmi, sample_words=4)
        samples = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
        rewards = model._reinforce.rewards(samples)
        expected = [tiny_npmi.mean_pairwise(row) for row in samples]
        np.testing.assert_allclose(rewards, expected)

    def test_baseline_tracks_rewards(self, tiny_corpus, tiny_npmi, fast_config):
        model = VTMRL(tiny_corpus.vocab_size, fast_config, tiny_npmi)
        assert model.reward_baseline == 0.0
        model.loss_on_batch(tiny_corpus.bow_matrix()[:8])
        assert model.reward_baseline != 0.0
        # a buffer: the state dict (checkpoints, guard restores) carries it
        assert model.state_dict()["buffer::reward_baseline"] == model.reward_baseline

    def test_trains(self, tiny_corpus, tiny_npmi, fast_config):
        model = VTMRL(tiny_corpus.vocab_size, fast_config, tiny_npmi)
        model.fit(tiny_corpus)
        assert np.isfinite(model.topic_word_matrix()).all()


class TestCLNTM:
    def test_augmentation_splits_salient_mass(self, tiny_corpus, fast_config):
        model = CLNTM(tiny_corpus.vocab_size, fast_config)
        model.on_fit_start(tiny_corpus)
        bow = tiny_corpus.bow_matrix()[:6]
        positive, negative = model._objective.views(bow)
        # views partition the original counts
        np.testing.assert_allclose(positive + negative, bow)
        # positive keeps a minority of word types (the salient ones)
        assert (positive > 0).sum() < (bow > 0).sum()
        assert (positive.sum(axis=1) > 0).all()

    def test_augmentation_respects_idf(self, fast_config, toy_corpus):
        model = CLNTM(toy_corpus.vocab_size, fast_config)
        model.on_fit_start(toy_corpus)
        # word present in every doc has lowest idf -> should not be the
        # one kept as salient when a rarer word is present
        bow = np.zeros((1, toy_corpus.vocab_size))
        bow[0, 0] = 1.0  # appears in 3 docs
        bow[0, 3] = 1.0  # appears in 3 docs
        positive, _ = model._objective.views(bow)
        assert positive[0].sum() > 0

    def test_extra_loss_positive_scalar(self, tiny_corpus, fast_config):
        model = CLNTM(tiny_corpus.vocab_size, fast_config)
        model.on_fit_start(tiny_corpus)
        bow = tiny_corpus.bow_matrix()[:8]
        theta, _, _ = model.encode_theta(bow, sample=False)
        loss = model._objective.infonce(model, theta, bow)
        assert loss.shape == ()
        assert np.isfinite(loss.item())

    def test_trains_with_contrastive_component(self, tiny_corpus, fast_config):
        model = CLNTM(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        assert "extra" in model.history[0]

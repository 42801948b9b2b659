"""ECRTM: embedding clustering regularization."""

import numpy as np
import pytest

from repro.models import ECRTM, build_model


class TestEcrtm:
    def test_regularizer_penalizes_collapsed_topics(
        self, tiny_corpus, tiny_embeddings, fast_config
    ):
        model = ECRTM(tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors)
        spread_value = model.clustering_regularizer().item()
        # collapse every topic embedding onto one point
        model.topic_embeddings.data = np.tile(
            model.topic_embeddings.data[0], (fast_config.num_topics, 1)
        )
        collapsed_value = model.clustering_regularizer().item()
        assert collapsed_value > spread_value

    def test_extra_loss_is_scaled_regularizer(
        self, tiny_corpus, tiny_embeddings, fast_config
    ):
        model = ECRTM(
            tiny_corpus.vocab_size,
            fast_config,
            tiny_embeddings.vectors,
            ecr_weight=2.0,
        )
        assert model.objectives.term("ecr").weight == 2.0
        _, parts = model.loss_on_batch(tiny_corpus.bow_matrix()[:4])
        assert parts["objective_ecr"] == pytest.approx(
            2.0 * model.clustering_regularizer().item(), rel=1e-6
        )

    def test_trains_without_collapse(self, tiny_corpus, tiny_embeddings, fast_config):
        model = ECRTM(tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors)
        model.fit(tiny_corpus)
        t = model.topic_embeddings.data
        norms = np.linalg.norm(t, axis=1, keepdims=True) + 1e-12
        cosine = (t / norms) @ (t / norms).T
        np.fill_diagonal(cosine, 0.0)
        assert cosine.max() < 0.999  # no two identical topic embeddings

    def test_registry_integration(self, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config):
        model = build_model(
            "ecrtm",
            tiny_corpus.vocab_size,
            fast_config,
            word_embeddings=tiny_embeddings.vectors,
            npmi=tiny_npmi,
        )
        assert isinstance(model, ECRTM)

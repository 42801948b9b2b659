"""Multi-level (topic-wise + document-wise) contrastive learning."""

import numpy as np
import pytest

from repro.core import ContraTopicConfig, npmi_kernel
from repro.errors import ConfigError
from repro.extensions import MultiLevelConfig, MultiLevelContraTopic
from repro.models import ETM


def _model(corpus, embeddings, npmi, config, **kwargs):
    backbone = ETM(corpus.vocab_size, config, embeddings.vectors)
    return MultiLevelContraTopic(
        backbone,
        npmi_kernel(npmi),
        ContraTopicConfig(lambda_weight=10.0),
        MultiLevelConfig(**kwargs),
    )


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_document": -0.1},
            {"salient_fraction": 0.0},
            {"salient_fraction": 1.0},
            {"infonce_temperature": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            MultiLevelConfig(**kwargs)


class TestLossComposition:
    def test_stack_combines_both_levels(
        self, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
    ):
        model = _model(tiny_corpus, tiny_embeddings, tiny_npmi, fast_config)
        model.on_fit_start(tiny_corpus)
        assert model.objectives.term_names() == ("contrastive", "document")
        _, parts = model.loss_on_batch(tiny_corpus.bow_matrix()[:8])
        assert parts["objective_document"] > 0.0
        assert parts["extra"] == (
            parts["objective_contrastive"] + parts["objective_document"]
        )
        assert np.isfinite(parts["extra"])

    def test_lambda_document_zero_reduces_to_contratopic(
        self, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
    ):
        model = _model(
            tiny_corpus, tiny_embeddings, tiny_npmi, fast_config, lambda_document=0.0
        )
        model.on_fit_start(tiny_corpus)
        _, parts = model.loss_on_batch(tiny_corpus.bow_matrix()[:8])
        # with zero document weight, the regularizer total is the topic
        # term alone
        assert parts["objective_document"] == 0.0
        assert parts["extra"] == parts["objective_contrastive"]

    def test_document_views_partition_counts(
        self, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
    ):
        model = _model(tiny_corpus, tiny_embeddings, tiny_npmi, fast_config)
        model.on_fit_start(tiny_corpus)
        bow = tiny_corpus.bow_matrix()[:10]
        positive, negative = model._document.views(bow)
        np.testing.assert_allclose(positive + negative, bow)


class TestTraining:
    def test_fit_and_interfaces(self, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config):
        model = _model(tiny_corpus, tiny_embeddings, tiny_npmi, fast_config)
        model.fit(tiny_corpus)
        beta = model.topic_word_matrix()
        np.testing.assert_allclose(beta.sum(axis=1), 1.0, rtol=1e-9)
        theta = model.transform(tiny_corpus)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, rtol=1e-9)
        assert "extra" in model.history[0]

    def test_document_level_shapes_representations(
        self, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
    ):
        """With a large document weight, θ of a document and of its salient
        view should end up more aligned than under the plain model."""
        import dataclasses

        config = dataclasses.replace(fast_config, epochs=6)

        def alignment(lambda_document):
            model = _model(
                tiny_corpus,
                tiny_embeddings,
                tiny_npmi,
                config,
                lambda_document=lambda_document,
            )
            model.fit(tiny_corpus)
            model.eval()
            bow = tiny_corpus.bow_matrix()[:32]
            positive, _ = model._document.views(bow)
            theta, _, _ = model.encode_theta(bow, sample=False)
            theta_pos, _, _ = model.encode_theta(positive, sample=False)
            a = theta.data / (np.linalg.norm(theta.data, axis=1, keepdims=True) + 1e-12)
            b = theta_pos.data / (
                np.linalg.norm(theta_pos.data, axis=1, keepdims=True) + 1e-12
            )
            return float((a * b).sum(axis=1).mean())

        assert alignment(20.0) > alignment(0.0) - 0.05

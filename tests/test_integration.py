"""End-to-end integration: the full pipeline, and the paper's key claims
reproduced at miniature scale.

These are the slowest tests in the suite (a few seconds each); they train
real models on the shared tiny dataset and assert *relative* properties —
the same shapes the benchmark harness reproduces at larger scale.
"""

import pytest

from repro import (
    ContraTopic,
    ContraTopicConfig,
    ETM,
    NTMConfig,
    build_embeddings,
    compute_npmi_matrix,
    load_20ng,
    npmi_kernel,
    topic_coherence,
    topic_diversity,
)
from repro.cluster import KMeans
from repro.metrics import heldout_perplexity, normalized_mutual_information, purity


@pytest.fixture(scope="module")
def pipeline():
    """One shared medium-tiny training run of ETM and ContraTopic."""
    ds = load_20ng(scale=0.2)
    emb = build_embeddings(ds.train, dim=40)
    npmi_train = compute_npmi_matrix(ds.train)
    npmi_test = compute_npmi_matrix(ds.test)

    def make_config(seed=0):
        return NTMConfig(
            num_topics=24,
            hidden_sizes=(48,),
            epochs=25,
            batch_size=100,
            seed=seed,
        )

    etm = ETM(ds.vocab_size, make_config(), emb.vectors).fit(ds.train)
    contra = ContraTopic(
        ETM(ds.vocab_size, make_config(), emb.vectors),
        npmi_kernel(npmi_train, temperature=0.25),
        ContraTopicConfig(lambda_weight=40.0, negative_weight=3.0),
    ).fit(ds.train)
    return ds, emb, npmi_test, etm, contra


class TestPipeline:
    def test_models_learn_coherent_topics(self, pipeline):
        ds, _, npmi_test, etm, contra = pipeline
        for model in (etm, contra):
            coherence = topic_coherence(model.topic_word_matrix(), npmi_test, 0.1)
            assert coherence > 0.3  # far above the ~0 of random topics

    def test_contratopic_improves_tail_coherence(self, pipeline):
        """The paper's headline: the regularizer lifts overall coherence,
        most visibly when low-quality tail topics are included."""
        _, _, npmi_test, etm, contra = pipeline
        etm_full = topic_coherence(etm.topic_word_matrix(), npmi_test, 1.0)
        contra_full = topic_coherence(contra.topic_word_matrix(), npmi_test, 1.0)
        assert contra_full > etm_full

    def test_contrastive_term_decreases_during_training(self, pipeline):
        _, _, _, _, contra = pipeline
        extras = [epoch["extra"] for epoch in contra.history]
        assert extras[-1] < extras[0]

    def test_topics_match_ground_truth_themes(self, pipeline):
        """Some learned topic must align with a known generating theme."""
        ds, _, _, _, contra = pipeline
        from repro.data.theme_banks import THEME_BANKS

        tops = contra.top_words(ds.train.vocabulary, 10)
        best_overlap = 0
        for words in tops:
            for bank in THEME_BANKS.values():
                best_overlap = max(best_overlap, len(set(words) & set(bank)))
        assert best_overlap >= 7

    def test_document_representation_clusters_by_label(self, pipeline):
        ds, _, _, _, contra = pipeline
        theta = contra.transform(ds.test)
        assignments = KMeans(ds.test.num_labels, seed=0).fit_predict(theta)
        assert purity(assignments, ds.test.labels) > 0.4
        assert normalized_mutual_information(assignments, ds.test.labels) > 0.3

    def test_heldout_perplexity_beats_uniform(self, pipeline):
        ds, _, _, etm, _ = pipeline
        theta = etm.transform(ds.test)
        perplexity = heldout_perplexity(
            theta, etm.topic_word_matrix(), ds.test.bow_matrix()
        )
        assert perplexity < ds.vocab_size  # uniform model scores exactly V

    def test_diversity_in_sane_range(self, pipeline):
        _, _, _, etm, contra = pipeline
        for model in (etm, contra):
            assert 0.2 < topic_diversity(model.topic_word_matrix()) <= 1.0


class TestPublicApi:
    def test_version_and_exports(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_flow(self):
        """The README/package-docstring quickstart must actually run."""
        ds = load_20ng(scale=0.08)
        emb = build_embeddings(ds.train, dim=16)
        npmi = compute_npmi_matrix(ds.train)
        backbone = ETM(
            ds.vocab_size,
            NTMConfig(num_topics=6, hidden_sizes=(24,), epochs=2, batch_size=64),
            emb.vectors,
        )
        model = ContraTopic(backbone, npmi_kernel(npmi), ContraTopicConfig())
        model.fit(ds.train)
        tops = model.top_words(ds.train.vocabulary, 10)
        assert len(tops) == 6

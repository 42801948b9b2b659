"""The §V.B evaluation protocol and §V.F multi-seed averaging."""

import numpy as np
import pytest

from repro.models.base import TopicModel
from repro.training import (
    evaluate_model,
    multi_seed_evaluation,
    train_and_evaluate,
)


class _StubModel(TopicModel):
    """Deterministic topic model for protocol tests.

    Topics are label-conditional word frequencies; transform returns the
    one-hot of the true label — a perfect-oracle model.
    """

    def __init__(self, num_topics: int, seed: int = 0):
        self.num_topics = num_topics
        self.seed = seed
        self._beta = None
        self._corpus = None

    def fit(self, corpus):
        rng = np.random.default_rng(self.seed)
        bow = corpus.bow_matrix()
        beta = np.zeros((self.num_topics, corpus.vocab_size))
        for k in range(self.num_topics):
            mask = corpus.labels % self.num_topics == k
            beta[k] = bow[mask].sum(axis=0) + 0.01 + rng.random(corpus.vocab_size) * 1e-6
        self._beta = beta / beta.sum(axis=1, keepdims=True)
        return self

    def topic_word_matrix(self):
        return self._beta

    def transform(self, corpus):
        theta = np.full((len(corpus), self.num_topics), 1e-6)
        for i, label in enumerate(corpus.labels):
            theta[i, label % self.num_topics] = 1.0
        return theta / theta.sum(axis=1, keepdims=True)


class TestEvaluateModel:
    def test_all_metric_families_present(self, tiny_dataset, tiny_test_npmi):
        model = _StubModel(num_topics=8).fit(tiny_dataset.train)
        result = evaluate_model(
            model, tiny_dataset.test, tiny_test_npmi, cluster_counts=(4, 8)
        )
        assert set(result.coherence) == {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
        assert set(result.diversity) == set(result.coherence)
        assert set(result.km_purity) == {4, 8}
        assert set(result.km_nmi) == {4, 8}

    def test_oracle_model_clusters_well(self, tiny_dataset, tiny_test_npmi):
        model = _StubModel(num_topics=tiny_dataset.train.num_labels).fit(
            tiny_dataset.train
        )
        result = evaluate_model(
            model, tiny_dataset.test, tiny_test_npmi, cluster_counts=(20,)
        )
        assert result.km_purity[20] > 0.8
        assert result.km_nmi[20] > 0.6

    def test_unlabeled_corpus_skips_clustering(self, tiny_dataset, tiny_test_npmi):
        from repro.data import Corpus

        unlabeled = Corpus(
            tiny_dataset.test.documents, tiny_dataset.test.vocabulary
        )
        model = _StubModel(num_topics=6).fit(tiny_dataset.train)
        result = evaluate_model(model, unlabeled, tiny_test_npmi)
        assert result.km_purity == {}

    def test_oversized_cluster_counts_skipped(self, tiny_dataset, tiny_test_npmi):
        model = _StubModel(num_topics=6).fit(tiny_dataset.train)
        result = evaluate_model(
            model,
            tiny_dataset.test,
            tiny_test_npmi,
            cluster_counts=(4, 10**6),
        )
        assert set(result.km_purity) == {4}

    def test_summary_keys(self, tiny_dataset, tiny_test_npmi):
        model = _StubModel(num_topics=6).fit(tiny_dataset.train)
        result = evaluate_model(
            model, tiny_dataset.test, tiny_test_npmi, cluster_counts=(4,)
        )
        summary = result.summary()
        assert "coherence@10%" in summary
        assert "km_purity@min" in summary


class TestMultiSeed:
    def test_averages_across_seeds(self, tiny_dataset, tiny_test_npmi):
        result = multi_seed_evaluation(
            lambda seed: _StubModel(num_topics=6, seed=seed),
            tiny_dataset.train,
            tiny_dataset.test,
            tiny_test_npmi,
            seeds=(0, 1, 2),
            cluster_counts=(4,),
            model_name="stub",
        )
        singles = [
            train_and_evaluate(
                lambda s=seed: _StubModel(num_topics=6, seed=s),
                tiny_dataset.train,
                tiny_dataset.test,
                tiny_test_npmi,
                seed=seed,
                cluster_counts=(4,),
            )
            for seed in (0, 1, 2)
        ]
        expected = np.mean([r.coherence[1.0] for r in singles])
        assert result.coherence[1.0] == pytest.approx(expected)
        assert result.model_name == "stub"

    def test_empty_results_rejected(self):
        from repro.training.protocol import _mean_results

        with pytest.raises(ValueError):
            _mean_results([])


class TestSeedHelpers:
    def test_spawn_rng_independent_streams(self):
        from repro.training import spawn_rng

        a = spawn_rng(5, stream=0).random(4)
        b = spawn_rng(5, stream=1).random(4)
        c = spawn_rng(5, stream=0).random(4)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, c)


class TestMultiSeedStd:
    def test_std_populated_with_multiple_seeds(self, tiny_dataset, tiny_test_npmi):
        result = multi_seed_evaluation(
            lambda seed: _StubModel(num_topics=6, seed=seed),
            tiny_dataset.train,
            tiny_dataset.test,
            tiny_test_npmi,
            seeds=(0, 1, 2),
            cluster_counts=(4,),
        )
        assert set(result.coherence_std) == set(result.coherence)
        assert all(v >= 0 for v in result.coherence_std.values())
        assert set(result.km_purity_std) == {4}

    def test_std_empty_for_single_seed(self, tiny_dataset, tiny_test_npmi):
        result = multi_seed_evaluation(
            lambda seed: _StubModel(num_topics=6, seed=seed),
            tiny_dataset.train,
            tiny_dataset.test,
            tiny_test_npmi,
            seeds=(0,),
            cluster_counts=(4,),
        )
        assert result.coherence_std == {}


class _DivergingStub(_StubModel):
    """Stub whose topics collapse to NaN for a configured set of seeds."""

    def __init__(self, num_topics, seed=0, bad_seeds=()):
        super().__init__(num_topics, seed=seed)
        self.bad_seeds = bad_seeds

    def topic_word_matrix(self):
        beta = super().topic_word_matrix()
        if self.seed in self.bad_seeds:
            beta = np.full_like(beta, np.nan)
        return beta


class TestDivergedSeeds:
    def test_diverged_seed_is_flagged_and_excluded(
        self, tiny_dataset, tiny_test_npmi
    ):
        result = multi_seed_evaluation(
            lambda seed: _DivergingStub(num_topics=6, seed=seed, bad_seeds=(1,)),
            tiny_dataset.train,
            tiny_dataset.test,
            tiny_test_npmi,
            seeds=(0, 1, 2),
            cluster_counts=(4,),
        )
        assert result.seed_status == {0: "ok", 1: "diverged", 2: "ok"}
        # the NaN run was excluded: the reported means stay finite
        assert all(np.isfinite(v) for v in result.coherence.values())
        summary = result.summary()
        assert summary["seeds_ok"] == 2.0
        assert summary["seeds_diverged"] == 1.0

    def test_excluded_mean_equals_mean_over_good_seeds(
        self, tiny_dataset, tiny_test_npmi
    ):
        with_bad = multi_seed_evaluation(
            lambda seed: _DivergingStub(num_topics=6, seed=seed, bad_seeds=(1,)),
            tiny_dataset.train,
            tiny_dataset.test,
            tiny_test_npmi,
            seeds=(0, 1, 2),
            cluster_counts=(4,),
        )
        only_good = multi_seed_evaluation(
            lambda seed: _DivergingStub(num_topics=6, seed=seed),
            tiny_dataset.train,
            tiny_dataset.test,
            tiny_test_npmi,
            seeds=(0, 2),
            cluster_counts=(4,),
        )
        assert with_bad.coherence == pytest.approx(only_good.coherence)

    def test_all_diverged_keeps_the_failure_visible(
        self, tiny_dataset, tiny_test_npmi
    ):
        result = multi_seed_evaluation(
            lambda seed: _DivergingStub(
                num_topics=6, seed=seed, bad_seeds=(0, 1)
            ),
            tiny_dataset.train,
            tiny_dataset.test,
            tiny_test_npmi,
            seeds=(0, 1),
            cluster_counts=(4,),
        )
        assert set(result.seed_status.values()) == {"diverged"}
        assert not result.is_finite()

    def test_is_finite_on_empty_result(self):
        from repro.training.protocol import EvaluationResult

        assert EvaluationResult("x", {}, {}).is_finite()

"""End-to-end sparse fast path vs the dense reference during training.

Two identically-seeded model instances fed the same batch — dense on one,
:class:`~repro.tensor.sparse.CSRBatch` on the other — must agree on the
loss value and every parameter gradient to ≤1e-6 (float64).  The sparse
path must also keep the bitwise checkpoint/resume guarantee, and
``transform()`` must pick the sparse path without changing θ.
"""

import dataclasses

import numpy as np

from repro.core import ContraTopic, ContraTopicConfig, npmi_kernel
from repro.data.loaders import BatchIterator
from repro.models import ETM, ProdLDA
from repro.tensor import dtypes
from repro.tensor.dtypes import sparse_policy
from repro.tensor.sparse import CSRBatch
from repro.training.resilience import CheckpointCallback
from repro.training.trainer import RunSpec, Trainer

from tests.training.test_resume import _assert_bitwise_equal

TOL = 1e-6  # acceptance bound for dense-vs-sparse values and gradients


def _first_batch(corpus, sparse: bool):
    it = BatchIterator(
        corpus, batch_size=64, rng=np.random.default_rng(5), sparse=sparse
    )
    return next(iter(it))


def _loss_and_grads(model, bow):
    loss, parts = model.loss_on_batch(bow)
    loss.backward()
    grads = {
        name: np.array(param.grad)
        for name, param in model.named_parameters()
        if param.grad is not None
    }
    return float(loss.data), parts, grads


def _assert_equivalent(make_model, corpus):
    dense_bow = _first_batch(corpus, sparse=False)
    sparse_bow = _first_batch(corpus, sparse=True)
    assert isinstance(sparse_bow, CSRBatch)
    np.testing.assert_array_equal(np.asarray(sparse_bow), dense_bow)

    dense_loss, dense_parts, dense_grads = _loss_and_grads(make_model(), dense_bow)
    sparse_loss, sparse_parts, sparse_grads = _loss_and_grads(
        make_model(), sparse_bow
    )
    assert abs(dense_loss - sparse_loss) <= TOL
    for key in dense_parts:
        assert abs(dense_parts[key] - sparse_parts[key]) <= TOL, key
    assert dense_grads.keys() == sparse_grads.keys()
    for name in dense_grads:
        np.testing.assert_allclose(
            sparse_grads[name], dense_grads[name], atol=TOL, err_msg=name
        )


class TestLossEquivalence:
    def test_prodlda(self, tiny_corpus, fast_config):
        _assert_equivalent(
            lambda: ProdLDA(tiny_corpus.vocab_size, fast_config), tiny_corpus
        )

    def test_etm(self, tiny_corpus, tiny_embeddings, fast_config):
        _assert_equivalent(
            lambda: ETM(
                tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors
            ),
            tiny_corpus,
        )

    def test_contratopic(
        self, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
    ):
        def make():
            return ContraTopic(
                ETM(tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors),
                npmi_kernel(tiny_npmi),
                ContraTopicConfig(),
            )

        _assert_equivalent(make, tiny_corpus)


class TestSparseResume:
    def test_resume_is_bitwise_under_forced_sparse_path(
        self, tiny_corpus, fast_config, tmp_path, monkeypatch
    ):
        # A threshold of 1.0 guarantees every batch really is CSR (no
        # per-batch dense fallback), making this a pure fast-path resume.
        monkeypatch.setattr(dtypes, "SPARSE_DENSITY_THRESHOLD", 1.0)
        with sparse_policy(enabled=True):
            full = ProdLDA(tiny_corpus.vocab_size, fast_config)
            full.fit(tiny_corpus)

            interrupted = ProdLDA(
                tiny_corpus.vocab_size, dataclasses.replace(fast_config, epochs=2)
            )
            callback = CheckpointCallback(tmp_path / "ckpt")
            interrupted.fit(tiny_corpus, callbacks=[callback])

            resumed = ProdLDA(tiny_corpus.vocab_size, fast_config)
            Trainer(RunSpec(resume_from=callback.last_path)).fit(resumed, tiny_corpus)
        _assert_bitwise_equal(full, resumed)

    def test_sparse_and_dense_training_converge_together(
        self, tiny_corpus, fast_config, monkeypatch
    ):
        # Whole fit() runs, not single batches: per-epoch loss histories
        # of the two paths track each other (float64 keeps them tight).
        monkeypatch.setattr(dtypes, "SPARSE_DENSITY_THRESHOLD", 1.0)
        with sparse_policy(enabled=True):
            sparse_model = ProdLDA(tiny_corpus.vocab_size, fast_config)
            sparse_model.fit(tiny_corpus)
        with sparse_policy(enabled=False):
            dense_model = ProdLDA(tiny_corpus.vocab_size, fast_config)
            dense_model.fit(tiny_corpus)
        sparse_hist = [e["total"] for e in sparse_model.history]
        dense_hist = [e["total"] for e in dense_model.history]
        np.testing.assert_allclose(sparse_hist, dense_hist, rtol=1e-6)


class TestTransform:
    def test_transform_sparse_matches_dense(
        self, tiny_corpus, fast_config, monkeypatch
    ):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        monkeypatch.setattr(dtypes, "SPARSE_DENSITY_THRESHOLD", 1.0)
        with sparse_policy(enabled=True):
            theta_sparse = model.transform(tiny_corpus)
        with sparse_policy(enabled=False):
            theta_dense = model.transform(tiny_corpus)
        assert theta_sparse.shape == (len(tiny_corpus), fast_config.num_topics)
        np.testing.assert_allclose(theta_sparse, theta_dense, atol=TOL)

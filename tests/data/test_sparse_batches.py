"""Corpus CSR caching + BatchIterator sparse dispatch.

The corpus owns one CSR master (float64) plus a one-slot per-dtype cast
cache, mirroring the dense bow caches; the iterator picks the batch
format once per epoch from the sparse policy and the corpus density.
"""

import numpy as np
import pytest

from repro.data.corpus import Corpus
from repro.data.loaders import BatchIterator
from repro.data.vocabulary import Vocabulary
from repro.tensor import dtypes
from repro.tensor.dtypes import sparse_policy
from repro.tensor.sparse import CSRBatch


@pytest.fixture
def dense_corpus():
    """A corpus whose bow is mostly nonzero (density far above threshold)."""
    vocab = Vocabulary(["a", "b", "c", "d"])
    docs = [[0, 1, 2, 3, 0, 1], [1, 2, 3, 0], [2, 3, 0, 1, 2], [3, 0, 1, 2]]
    return Corpus(docs, vocab)


class TestCorpusCsrCaches:
    def test_bow_csr_is_cached(self, tiny_corpus):
        assert tiny_corpus.bow_csr() is tiny_corpus.bow_csr()
        assert tiny_corpus.bow_csr(np.float64).dtype == np.float64

    def test_bow_csr_cast_cache_is_one_slot(self, tiny_corpus):
        f32 = tiny_corpus.bow_csr(np.float32)
        assert f32.dtype == np.float32
        assert tiny_corpus.bow_csr(np.float32) is f32
        # casts share the master's structure arrays (data is recast only)
        assert np.shares_memory(f32.indices, tiny_corpus.bow_csr().indices)

    def test_bow_matrix_agrees_with_csr(self, tiny_corpus):
        np.testing.assert_array_equal(
            tiny_corpus.bow_matrix(), tiny_corpus.bow_csr().toarray()
        )

    def test_bow_matrix_builds_requested_dtype_directly(self, dense_corpus):
        # Satellite fix: a float32 request must not round-trip through a
        # float64 dense master it then casts down from.
        mat = dense_corpus.bow_matrix(dtype=np.float32)
        assert mat.dtype == np.float32
        assert dense_corpus._bow_cache is None  # no float64 master built

    def test_bow_density(self, tiny_corpus, dense_corpus):
        density = tiny_corpus.bow_density()
        assert 0.0 < density < 0.25  # real bag-of-words corpora are sparse
        assert dense_corpus.bow_density() > 0.9

    def test_binary_doc_word_does_not_corrupt_counts(self, dense_corpus):
        before = dense_corpus.bow_csr().toarray().copy()
        binary = dense_corpus.binary_doc_word()
        assert set(np.unique(binary.toarray())) <= {0.0, 1.0}
        np.testing.assert_array_equal(dense_corpus.bow_csr().toarray(), before)


class TestBatchIteratorDispatch:
    def test_sparse_corpus_auto_dispatches_to_csr(self, tiny_corpus):
        it = BatchIterator(tiny_corpus, batch_size=16, rng=np.random.default_rng(0))
        assert it.sparse
        batch = next(iter(it))
        assert isinstance(batch, CSRBatch)
        assert batch.shape[1] == tiny_corpus.vocab_size

    def test_dense_corpus_falls_back_to_dense(self, dense_corpus):
        it = BatchIterator(dense_corpus, batch_size=2, rng=np.random.default_rng(0))
        assert not it.sparse
        assert isinstance(next(iter(it)), np.ndarray)

    def test_explicit_sparse_false_pins_dense(self, tiny_corpus):
        it = BatchIterator(
            tiny_corpus, batch_size=16, rng=np.random.default_rng(0), sparse=False
        )
        assert not it.sparse
        assert isinstance(next(iter(it)), np.ndarray)

    def test_policy_disabled_wins_over_opt_in(self, tiny_corpus):
        with sparse_policy(enabled=False):
            it = BatchIterator(
                tiny_corpus, batch_size=16, rng=np.random.default_rng(0), sparse=True
            )
        assert not it.sparse

    def test_threshold_zero_disables_dispatch(self, tiny_corpus, monkeypatch):
        monkeypatch.setattr(dtypes, "SPARSE_DENSITY_THRESHOLD", 0.0)
        it = BatchIterator(tiny_corpus, batch_size=16, rng=np.random.default_rng(0))
        assert not it.sparse

    def test_dense_batch_fallback_within_sparse_epoch(
        self, dense_corpus, monkeypatch
    ):
        # Force the sparse path on a dense corpus: every batch lands at or
        # above the threshold, so _materialize falls back to dense per batch.
        monkeypatch.setattr(dtypes, "SPARSE_DENSITY_THRESHOLD", 1.0)
        it = BatchIterator(
            dense_corpus, batch_size=2, rng=np.random.default_rng(0), sparse=True
        )
        assert it.sparse
        batches = list(it)
        assert all(isinstance(b, np.ndarray) for b in batches)

    def test_sparse_batches_match_dense_batches(self, tiny_corpus):
        sparse_it = BatchIterator(
            tiny_corpus, batch_size=8, rng=np.random.default_rng(3), sparse=True
        )
        dense_it = BatchIterator(
            tiny_corpus, batch_size=8, rng=np.random.default_rng(3), sparse=False
        )
        for sp, dn in zip(sparse_it, dense_it):
            np.testing.assert_array_equal(np.asarray(sp), dn)

    def test_dtype_is_respected_on_both_paths(self, tiny_corpus):
        for sparse in (True, False):
            it = BatchIterator(
                tiny_corpus,
                batch_size=8,
                rng=np.random.default_rng(0),
                dtype=np.float32,
                sparse=sparse,
            )
            batch = next(iter(it))
            assert batch.dtype == np.float32

    def test_batches_follow_the_shuffled_order_sparse(self, tiny_corpus):
        # A twin generator replays the iterator's one permutation per epoch.
        it = BatchIterator(
            tiny_corpus, batch_size=8, rng=np.random.default_rng(0), sparse=True
        )
        order = np.random.default_rng(0).permutation(len(tiny_corpus))
        bow = tiny_corpus.bow_matrix()
        seen = []
        for start, batch in zip(range(0, len(order), 8), it):
            idx = order[start : start + 8]
            np.testing.assert_array_equal(np.asarray(batch), bow[idx])
            seen.extend(idx.tolist())
        assert sorted(seen) == list(range(len(tiny_corpus)))

class TestSparsePolicyEnv:
    def test_env_var_disables_sparse(self, tiny_corpus, monkeypatch):
        from repro.tensor.dtypes import _init_sparse_from_env

        monkeypatch.setenv("REPRO_SPARSE", "0")
        try:
            _init_sparse_from_env()
            it = BatchIterator(
                tiny_corpus, batch_size=16, rng=np.random.default_rng(0)
            )
            assert not it.sparse
        finally:
            monkeypatch.delenv("REPRO_SPARSE")
            _init_sparse_from_env()

"""Corpus container: validation, bag-of-words, statistics."""

import numpy as np
import pytest

from repro.data import Corpus
from repro.errors import CorpusError


class TestValidation:
    def test_empty_corpus_rejected(self, toy_vocabulary):
        with pytest.raises(CorpusError):
            Corpus([], toy_vocabulary)

    def test_empty_document_rejected(self, toy_vocabulary):
        with pytest.raises(CorpusError):
            Corpus([[0, 1], []], toy_vocabulary)

    def test_out_of_range_token_rejected(self, toy_vocabulary):
        with pytest.raises(CorpusError):
            Corpus([[0, 99]], toy_vocabulary)

    def test_label_length_mismatch(self, toy_vocabulary):
        with pytest.raises(CorpusError):
            Corpus([[0], [1]], toy_vocabulary, labels=[0])


class TestBagOfWords:
    def test_dense_counts(self, toy_corpus):
        bow = toy_corpus.bow_matrix()
        assert bow.shape == (6, 6)
        np.testing.assert_allclose(bow[0], [2, 2, 1, 0, 0, 0])

    def test_sparse_matches_dense(self, toy_corpus):
        dense = toy_corpus.bow_matrix()
        np.testing.assert_allclose(toy_corpus.bow_sparse().toarray(), dense)

    def test_binary_incidence(self, toy_corpus):
        binary = toy_corpus.binary_doc_word().toarray()
        assert set(np.unique(binary)).issubset({0.0, 1.0})
        np.testing.assert_allclose(binary, (toy_corpus.bow_matrix() > 0))

    def test_bow_cached_and_dtype(self, toy_corpus):
        a = toy_corpus.bow_matrix()
        b = toy_corpus.bow_matrix()
        assert a is b
        assert toy_corpus.bow_matrix(np.float32).dtype == np.float32


class TestCastCache:
    def test_alternating_dtypes_rebuild_at_most_once_each(self, toy_corpus):
        # Regression: float32 training interleaved with float64 NPMI
        # evaluation used to rebuild the BOW on every dtype switch.  The
        # per-dtype dicts pin each dtype to at most one materialization
        # per corpus lifetime, however requests alternate.
        for _ in range(8):
            toy_corpus.bow_matrix(np.float32)
            toy_corpus.bow_matrix(np.float64)
            toy_corpus.bow_csr(np.float32)
            toy_corpus.bow_csr(np.float64)
        stats = toy_corpus.cast_stats
        assert stats["bow_rebuilds"] == 2  # one per dtype, never more
        assert stats["csr_rebuilds"] <= 2
        assert stats["bow_hits"] >= 14
        assert stats["csr_hits"] >= 14

    def test_alternating_dtypes_return_stable_objects(self, toy_corpus):
        f32_first = toy_corpus.bow_matrix(np.float32)
        f64_first = toy_corpus.bow_matrix(np.float64)
        assert toy_corpus.bow_matrix(np.float32) is f32_first
        assert toy_corpus.bow_matrix(np.float64) is f64_first
        csr_first = toy_corpus.bow_csr(np.float32)
        toy_corpus.bow_csr(np.float64)
        assert toy_corpus.bow_csr(np.float32) is csr_first


class TestStats:
    def test_table1_quantities(self, toy_corpus):
        stats = toy_corpus.stats()
        lengths = [5, 4, 5, 4, 5, 4]
        assert stats.num_documents == 6
        assert stats.vocabulary_size == 6
        assert stats.num_tokens == sum(lengths)
        np.testing.assert_allclose(stats.average_length, np.mean(lengths))

    def test_stats_as_row(self, toy_corpus):
        row = toy_corpus.stats().as_row()
        assert row["Vocabulary Size"] == 6

    def test_word_frequencies(self, toy_corpus):
        freq = toy_corpus.word_frequency()
        assert freq.sum() == toy_corpus.stats().num_tokens
        df = toy_corpus.word_document_frequency()
        assert (df <= len(toy_corpus)).all()
        assert (df >= 1).all()  # every vocab word appears somewhere here

    def test_top_words(self, toy_corpus):
        top = toy_corpus.top_words(3)
        assert len(top) == 3
        assert all(isinstance(w, str) for w in top)

    def test_num_labels(self, toy_corpus, toy_vocabulary):
        assert toy_corpus.num_labels == 2
        unlabeled = Corpus([[0]], toy_vocabulary)
        assert unlabeled.num_labels == 0
        assert unlabeled.labels is None


class TestSubset:
    def test_subset_keeps_labels(self, toy_corpus):
        sub = toy_corpus.subset([0, 3])
        assert len(sub) == 2
        assert sub.labels.tolist() == [0, 1]
        assert sub.vocabulary is toy_corpus.vocabulary

    def test_empty_subset_rejected(self, toy_corpus):
        with pytest.raises(CorpusError):
            toy_corpus.subset([])

    def test_repr(self, toy_corpus):
        assert "labeled" in repr(toy_corpus)


class TestFingerprint:
    @pytest.fixture(autouse=True)
    def _fresh_stats(self):
        from repro.data.corpus import reset_fingerprint_stats

        reset_fingerprint_stats()
        yield
        reset_fingerprint_stats()

    def test_memoised_warm_lookup_hashes_nothing(self, toy_corpus):
        from repro.data.corpus import fingerprint_stats

        first = toy_corpus.content_fingerprint()
        cold = fingerprint_stats()
        assert cold["documents_hashed"] == len(toy_corpus)
        assert toy_corpus.content_fingerprint() == first
        warm = fingerprint_stats()
        # The warm lookup is a pure memo hit: zero additional hashing work.
        assert warm["documents_hashed"] == cold["documents_hashed"]
        assert warm["computes"] == cold["computes"]
        assert warm["memo_hits"] == cold["memo_hits"] + 1

    def test_extend_hashes_only_the_delta(self, toy_corpus, toy_vocabulary):
        from repro.data.corpus import fingerprint_stats

        toy_corpus_copy = Corpus(
            [doc.copy() for doc in toy_corpus.documents], toy_vocabulary
        )
        toy_corpus_copy.content_fingerprint()
        hashed_before = fingerprint_stats()["documents_hashed"]
        added = toy_corpus_copy.extend([[0, 5], [1, 2, 3]])
        assert added == 2
        toy_corpus_copy.content_fingerprint()
        # Chained digest: only the two new documents were hashed.
        assert fingerprint_stats()["documents_hashed"] == hashed_before + 2

    def test_extended_equals_from_scratch(self, toy_corpus, toy_vocabulary):
        grown = Corpus([doc.copy() for doc in toy_corpus.documents], toy_vocabulary)
        grown.content_fingerprint()  # memoise, then chain from the delta
        grown.extend([[3, 4], [5, 0, 1]])
        scratch = Corpus(
            [doc.copy() for doc in grown.documents], toy_vocabulary
        )
        assert grown.content_fingerprint() == scratch.content_fingerprint()
        assert grown.content_fingerprint() != toy_corpus.content_fingerprint()

    def test_extend_invalidates_bow_caches(self, toy_corpus, toy_vocabulary):
        grown = Corpus([doc.copy() for doc in toy_corpus.documents], toy_vocabulary)
        before = grown.bow_matrix()
        grown.extend([[0, 1]])
        after = grown.bow_matrix()
        assert after.shape[0] == before.shape[0] + 1

    def test_extend_validates_documents(self, toy_corpus, toy_vocabulary):
        grown = Corpus([doc.copy() for doc in toy_corpus.documents], toy_vocabulary)
        with pytest.raises(CorpusError):
            grown.extend([[]])
        with pytest.raises(CorpusError):
            grown.extend([[len(toy_vocabulary)]])
        # Unlabeled corpora reject labels; labeled ones require them.
        with pytest.raises(CorpusError):
            grown.extend([[0, 1]], labels=[1])
        labeled = Corpus(
            [doc.copy() for doc in toy_corpus.documents],
            toy_vocabulary,
            labels=toy_corpus.labels,
        )
        with pytest.raises(CorpusError):
            labeled.extend([[0, 1]])
        labeled.extend([[0, 1]], labels=[1])
        assert len(labeled) == len(toy_corpus) + 1
        assert len(grown) == len(toy_corpus)

    def test_pickle_keeps_memo(self, toy_corpus):
        import pickle

        fp = toy_corpus.content_fingerprint()
        clone = pickle.loads(pickle.dumps(toy_corpus))
        assert clone.content_fingerprint() == fp

"""Exactness and reuse contracts of the incremental NPMI engine.

The streaming engine promises *exact* delta updates: after any schedule
of slices the cumulative counts equal a from-scratch recount bitwise and
the in-place NPMI matches a cold :func:`compute_npmi_matrix` to <= 1e-12
(in practice exactly — both paths share one derivation kernel).  The
property tests here replay randomized slice schedules — uneven sizes,
empty slices, words unseen until late slices — against that contract.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.data import Corpus
from repro.errors import CorpusError, ShapeError
from repro.metrics import (
    DocumentCooccurrence,
    NpmiWorkspace,
    StreamingNpmiEngine,
    compute_npmi_matrix,
)
from repro.metrics.npmi import NpmiMatrix

NPMI_TOL = 1e-12


def _random_docs(rng, num_docs, vocab_size, high=None):
    """Token-id documents of random length over ``[0, high or vocab_size)``."""
    high = high or vocab_size
    return [
        rng.integers(0, high, size=rng.integers(1, 9)).tolist()
        for _ in range(num_docs)
    ]


def _random_schedule(rng, vocab_size, num_slices):
    """Slices of random size (some empty), late slices unlock new words.

    The first half of the schedule draws from the low half of the
    vocabulary only, so the back half introduces previously unseen words
    — the regime where an approximate sketch would drift and an exact
    delta update must not.
    """
    slices = []
    for t in range(num_slices):
        n = int(rng.integers(0, 7))  # 0 => empty slice
        high = max(2, vocab_size // 2) if t < num_slices // 2 else vocab_size
        slices.append(_random_docs(rng, n, vocab_size, high=high))
    return slices


class TestIncrementalEqualsRecount:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_schedules_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        vocab_size = int(rng.integers(5, 30))
        engine = StreamingNpmiEngine(vocab_size)
        all_docs = []
        for docs in _random_schedule(rng, vocab_size, num_slices=10):
            engine.update(docs)
            all_docs.extend(docs)
        recount = DocumentCooccurrence.empty(vocab_size)
        recount.update(all_docs)
        # Bitwise count equality, regardless of slicing.
        assert engine.num_documents == recount.num_documents
        assert np.array_equal(engine.cooccurrence.joint, recount.joint)
        assert np.array_equal(engine.cooccurrence.doc_freq, recount.doc_freq)
        engine.check_against(recount)  # the engine's own guard agrees
        if recount.num_documents:
            cold = compute_npmi_matrix(recount)
            gap = np.max(np.abs(engine.npmi.matrix - cold.matrix))
            assert gap <= NPMI_TOL

    def test_corpus_slices_match_union_corpus(self, toy_vocabulary):
        docs = [[0, 1, 2], [2, 3], [3, 4, 5], [0, 5], [1, 1, 4]]
        union = Corpus([list(d) for d in docs], toy_vocabulary)
        engine = StreamingNpmiEngine(union.vocab_size)
        for doc in docs:
            engine.update(Corpus([list(doc)], toy_vocabulary))
        full = DocumentCooccurrence.from_corpus(union, cache=False)
        engine.check_against(full)
        cold = compute_npmi_matrix(full)
        assert np.max(np.abs(engine.npmi.matrix - cold.matrix)) <= NPMI_TOL

    def test_empty_slice_is_a_counted_noop(self):
        engine = StreamingNpmiEngine(4)
        engine.update([[0, 1], [2]])
        joint_before = engine.cooccurrence.joint.copy()
        npmi_before = engine.npmi.matrix.copy()
        engine.update([])
        assert engine.num_documents == 2
        np.testing.assert_array_equal(engine.cooccurrence.joint, joint_before)
        np.testing.assert_array_equal(engine.npmi.matrix, npmi_before)
        assert engine.stats["updates"] == 2

    def test_bow_slice_forms_agree(self):
        rng = np.random.default_rng(3)
        vocab_size = 7
        docs = _random_docs(rng, 12, vocab_size)
        bow = np.zeros((len(docs), vocab_size))
        for i, doc in enumerate(docs):
            for w in doc:
                bow[i, w] += 1
        from_docs = StreamingNpmiEngine(vocab_size)
        from_docs.update(docs)
        from_dense = StreamingNpmiEngine(vocab_size)
        from_dense.update(bow)
        from_sparse = StreamingNpmiEngine(vocab_size)
        from_sparse.update(sparse.csr_matrix(bow))
        for other in (from_dense, from_sparse):
            assert np.array_equal(
                from_docs.cooccurrence.joint, other.cooccurrence.joint
            )
            assert np.array_equal(from_docs.npmi.matrix, other.npmi.matrix)


class TestBufferReuse:
    def test_npmi_matrix_identity_is_stable(self):
        engine = StreamingNpmiEngine(5)
        live = engine.npmi.matrix
        engine.update([[0, 1], [1, 2]])
        engine.update([[3, 4]])
        assert engine.npmi.matrix is live  # rederived in place, never swapped
        assert engine._workspace.uses == 2

    def test_rederive_into_reuses_workspace(self):
        counts = DocumentCooccurrence.empty(4)
        counts.update([[0, 1], [1, 2], [2, 3]])
        work = NpmiWorkspace(4)
        out = NpmiMatrix(np.zeros((4, 4)))
        out.rederive_into(counts, workspace=work)
        out.rederive_into(counts, workspace=work)
        assert work.uses == 2
        cold = compute_npmi_matrix(counts)
        assert np.max(np.abs(out.matrix - cold.matrix)) <= NPMI_TOL

    def test_stats_accumulate(self):
        engine = StreamingNpmiEngine(4)
        engine.update([[0, 1]])
        engine.update([[1, 2], [2, 3]])
        assert engine.stats["updates"] == 2
        assert engine.stats["documents"] == 3
        assert engine.stats["buffer_reuses"] == 1
        assert engine.stats["delta_nnz"] > 0
        # Each engine counts only its own slices.
        assert StreamingNpmiEngine(4).stats["updates"] == 0


class TestValidation:
    def test_vocab_size_must_be_positive(self):
        with pytest.raises(ShapeError):
            DocumentCooccurrence.empty(0)

    def test_empty_document_rejected(self):
        engine = StreamingNpmiEngine(4)
        with pytest.raises(CorpusError):
            engine.update([[0, 1], []])

    def test_out_of_vocab_token_rejected(self):
        engine = StreamingNpmiEngine(4)
        with pytest.raises(CorpusError):
            engine.update([[0, 4]])

    def test_vocab_mismatch_rejected(self, toy_corpus):
        engine = StreamingNpmiEngine(toy_corpus.vocab_size + 1)
        with pytest.raises(ShapeError):
            engine.update(toy_corpus)

    def test_check_against_raises_on_divergence(self):
        engine = StreamingNpmiEngine(4)
        engine.update([[0, 1]])
        other = DocumentCooccurrence.empty(4)
        other.update([[2, 3]])
        with pytest.raises(ShapeError):
            engine.check_against(other)

    def test_cached_counts_are_frozen(self, toy_corpus):
        from repro.metrics.cooccurrence import clear_cooccurrence_cache

        clear_cooccurrence_cache()
        try:
            cached = DocumentCooccurrence.from_corpus(toy_corpus)
            with pytest.raises(CorpusError):
                cached.update([[0, 1]])
            uncached = DocumentCooccurrence.from_corpus(toy_corpus, cache=False)
            uncached.update([[0, 1]])  # private copies stay mutable
            assert uncached.num_documents == cached.num_documents + 1
        finally:
            clear_cooccurrence_cache()

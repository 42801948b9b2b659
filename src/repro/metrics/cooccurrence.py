"""Document-level word co-occurrence counting.

Topic-coherence NPMI is conventionally estimated from boolean document
co-occurrence: ``p(w) = df(w) / D`` and ``p(w_i, w_j) = df(w_i, w_j) / D``
where ``df`` counts documents containing the word (pair).  One counting
kernel, :meth:`DocumentCooccurrence.update`, serves both a cold count
(an update of :meth:`~DocumentCooccurrence.empty` counts) and the
streaming per-slice delta: one sparse product of the slice's 0/1
incidence with itself, densified and added straight into the joint
counts.

Caching: counting is O(nnz·V) and several callers re-count the *same*
corpus — every grid point recomputes the validation NPMI, every
evaluation recomputes the test NPMI.  :meth:`DocumentCooccurrence
.from_corpus` therefore memoises per process, keyed by
:func:`corpus_fingerprint` (a content hash, so two corpora with equal
documents share an entry no matter how they were constructed).  The
cache is bounded (LRU) because each entry holds a dense V×V matrix.
Cached instances are shared — treat them as read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.data.corpus import (
    Corpus,
    documents_to_csr,
    incidence_matrix,
    validate_documents,
)
from repro.errors import CorpusError, ShapeError

#: Dense V×V joint matrices are large; keep only this many corpora.
CACHE_CAPACITY = 8

_COUNT_CACHE: "OrderedDict[str, DocumentCooccurrence]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0}


def corpus_fingerprint(corpus: Corpus) -> str:
    """Content hash of a corpus's documents (order-sensitive).

    Two corpora with identical document sequences over the same-sized
    vocabulary fingerprint identically regardless of how they were built
    (loader, subset, split, or streaming :meth:`~repro.data.corpus.Corpus
    .extend`).  Labels are excluded — co-occurrence never reads them.

    The value is memoised on the corpus and chained incrementally: a
    warm lookup hashes nothing, and a corpus grown by ``extend`` chains
    (parent digest, delta digest) instead of re-hashing every document.
    """
    return corpus.content_fingerprint()


def cooccurrence_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the per-process count cache."""
    return {**_CACHE_STATS, "size": len(_COUNT_CACHE)}


def clear_cooccurrence_cache() -> None:
    """Drop every cached count (and reset the hit/miss counters)."""
    _COUNT_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


class DocumentCooccurrence:
    """Document-frequency marginals and pairwise joint counts for a corpus.

    Attributes
    ----------
    num_documents:
        Number of documents counted.
    doc_freq:
        ``(vocab,)`` — documents containing each word.
    joint:
        ``(vocab, vocab)`` dense symmetric matrix of documents containing
        both words; the diagonal equals ``doc_freq``.
    """

    def __init__(self, num_documents: int, doc_freq: np.ndarray, joint: np.ndarray):
        if joint.shape != (doc_freq.size, doc_freq.size):
            raise ShapeError(
                f"joint shape {joint.shape} inconsistent with vocab {doc_freq.size}"
            )
        self.num_documents = num_documents
        self.doc_freq = doc_freq
        self.joint = joint
        #: Cached instances are shared read-only; :meth:`update` refuses
        #: to mutate them (set when an instance enters the LRU cache).
        self._frozen = False
        #: Streaming counters: delta updates applied, the nonzero
        #: entries of their deltas, and the documents they added.
        self.update_stats: dict[str, int] = {
            "updates": 0,
            "delta_nnz": 0,
            "documents_added": 0,
        }

    @classmethod
    def from_corpus(cls, corpus: Corpus, cache: bool = True) -> "DocumentCooccurrence":
        """Count document co-occurrence: one :meth:`update` of empty counts.

        With ``cache=True`` (the default) the result is memoised per
        process under the corpus's content fingerprint; the returned
        instance may be shared with other callers, so treat it as
        read-only.  Pass ``cache=False`` to force a fresh count (and
        leave the cache untouched).
        """
        if not cache:
            return cls._count(corpus)
        key = corpus_fingerprint(corpus)
        hit = _COUNT_CACHE.get(key)
        if hit is not None:
            _COUNT_CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
            return hit
        _CACHE_STATS["misses"] += 1
        counted = cls._count(corpus)
        counted._frozen = True
        _COUNT_CACHE[key] = counted
        while len(_COUNT_CACHE) > CACHE_CAPACITY:
            _COUNT_CACHE.popitem(last=False)
        return counted

    @classmethod
    def _count(cls, corpus: Corpus) -> "DocumentCooccurrence":
        counted = cls.empty(corpus.vocab_size)
        counted.update(corpus)
        return counted

    @classmethod
    def from_bow(cls, bow: np.ndarray | sparse.spmatrix) -> "DocumentCooccurrence":
        """Count from a (docs, vocab) count matrix directly."""
        if not sparse.issparse(bow):
            bow = np.asarray(bow)
        counted = cls.empty(bow.shape[1])
        counted.update(bow)
        return counted

    @classmethod
    def empty(cls, vocab_size: int) -> "DocumentCooccurrence":
        """Zero counts over ``vocab_size`` words — the streaming seed.

        An empty instance is mutable by construction: feed it slices
        through :meth:`update` and the counts stay bitwise-equal to a
        full recount of everything fed so far.
        """
        if vocab_size < 1:
            raise ShapeError(f"vocab_size must be >= 1, got {vocab_size}")
        return cls(
            0,
            np.zeros(vocab_size, dtype=np.float64),
            np.zeros((vocab_size, vocab_size), dtype=np.float64),
        )

    def update(
        self,
        new_docs: "Corpus | Sequence[Sequence[int]] | np.ndarray | sparse.spmatrix",
    ) -> int:
        """Fold new documents' counts in, exactly; returns the delta nnz.

        The delta is the new documents' binary-slice product
        ``incidence.T @ incidence`` — O(nnz_new·V), never a full
        O(nnz_total·V) recount — densified and added straight into
        ``joint``, with no COO sort or scatter.  The returned delta nnz
        is its number of nonzero entries.  Because every count is an
        integer (exact in float64), the incremental totals are **bitwise
        identical** to a from-scratch recount of all documents seen so
        far, in any slice order.

        ``new_docs`` may be a :class:`~repro.data.corpus.Corpus`, a
        sequence of token-id documents (the empty sequence is a no-op
        slice), or a ``(docs, vocab)`` count matrix.  Cached instances
        returned by :meth:`from_corpus` are shared read-only and refuse
        to update.
        """
        if self._frozen:
            raise CorpusError(
                "refusing to update a cached DocumentCooccurrence (shared "
                "read-only); count with cache=False or start from empty()"
            )
        incidence = self._as_incidence(new_docs)
        self.update_stats["updates"] += 1
        added = incidence.shape[0]
        if added == 0:
            return 0
        delta = (incidence.T @ incidence).toarray()
        self.joint += delta
        self.doc_freq += np.asarray(incidence.sum(axis=0)).ravel()
        self.num_documents += added
        delta_nnz = int(np.count_nonzero(delta))
        self.update_stats["delta_nnz"] += delta_nnz
        self.update_stats["documents_added"] += added
        return delta_nnz

    def _as_incidence(self, new_docs) -> sparse.csr_matrix:
        """Normalize any accepted slice form to 0/1 CSR over this vocab."""
        vocab = self.vocab_size
        if isinstance(new_docs, Corpus):
            if new_docs.vocab_size != vocab:
                raise ShapeError(
                    f"slice vocab {new_docs.vocab_size} != counts vocab {vocab}"
                )
            return new_docs.binary_doc_word()
        if sparse.issparse(new_docs) or isinstance(new_docs, np.ndarray):
            bow = new_docs
            if bow.shape[1] != vocab:
                raise ShapeError(
                    f"slice bow vocab {bow.shape[1]} != counts vocab {vocab}"
                )
            if sparse.issparse(bow):
                incidence = bow.tocsr().copy()
                incidence.data = np.ones_like(incidence.data)
                return incidence
            return sparse.csr_matrix((np.asarray(bow) > 0).astype(np.float64))
        # A (possibly empty) sequence of token-id documents.
        docs = [np.asarray(doc, dtype=np.int64) for doc in new_docs]
        validate_documents(docs, vocab, noun="slice document")
        return incidence_matrix(documents_to_csr(docs, vocab))

    @property
    def vocab_size(self) -> int:
        return self.doc_freq.size

    def marginal_probability(self) -> np.ndarray:
        """``p(w)`` estimated as document frequency over document count."""
        return self.doc_freq / self.num_documents

    def joint_probability(self) -> np.ndarray:
        """``p(w_i, w_j)`` estimated from joint document frequency."""
        return self.joint / self.num_documents

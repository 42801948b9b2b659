"""The :class:`Corpus` container: bag-of-words documents plus labels.

A corpus stores documents as lists of token ids (order preserved for
window-based co-occurrence counting) and materializes dense or sparse
bag-of-words matrices on demand.  It also computes the statistics reported
in the paper's Table I.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.data.vocabulary import Vocabulary
from repro.errors import CorpusError
from repro.tensor.sparse import CSRBatch

#: Effectiveness counters of the memoised content fingerprint
#: (:meth:`Corpus.content_fingerprint`).  ``documents_hashed`` is the
#: ground truth for "a warm lookup does zero hashing work": it only
#: advances when document payloads are actually fed to the digest.
_FINGERPRINT_STATS = {"computes": 0, "memo_hits": 0, "documents_hashed": 0}


#: Documents per chunk of :func:`documents_to_csr`.  The build's
#: temporaries (concatenated tokens, row keys, the sort) scale with the
#: chunk rather than the corpus, so a large recount keeps a flat peak.
_CSR_CHUNK_DOCS = 1024


def validate_documents(
    documents: Sequence[np.ndarray],
    vocab_size: int,
    first_index: int = 0,
    noun: str = "document",
) -> None:
    """Reject empty documents and out-of-vocabulary token ids.

    One pass over all tokens decides whether everything is valid; only
    when something is not does a per-document scan name the first
    offender (its index counted from ``first_index``).
    """
    if not documents:
        return
    sizes = np.fromiter((doc.size for doc in documents), np.int64, len(documents))
    tokens = np.concatenate(documents, axis=None)
    if sizes.min() > 0 and tokens.min() >= 0 and tokens.max() < vocab_size:
        return
    for offset, doc in enumerate(documents):
        i = first_index + offset
        if doc.size == 0:
            raise CorpusError(f"{noun} {i} is empty")
        if doc.min() < 0 or doc.max() >= vocab_size:
            raise CorpusError(
                f"{noun} {i} has token ids outside [0, {vocab_size})"
            )


_INT32_MAX = np.iinfo(np.int32).max


def documents_to_csr(documents: Sequence[np.ndarray], vocab_size: int) -> CSRBatch:
    """The ``(docs, vocab)`` float64 counts of token-id documents, as CSR.

    Each chunk of documents is counted with one ``np.unique`` over
    ``row * vocab_size + id`` keys: the sorted unique keys are the CSR
    entries in row-major, id-ascending order, their counts the values,
    and a ``bincount`` of their rows the ``indptr`` increments.  The
    documents must be validated int64 arrays.

    The arrays are built straight into a
    :class:`~repro.tensor.sparse.CSRBatch`, with no ``scipy.sparse``
    matrix.  Index arrays are int32 when the shape and nnz fit, int64
    otherwise: the dtypes scipy picks for the same arrays, so
    :meth:`Corpus.bow_sparse` wraps them without a copy.
    """
    n = len(documents)
    id_dtype = np.int32 if vocab_size <= _INT32_MAX else np.int64
    if n == 1:
        # One document (a served request): no chunk bookkeeping.
        ids, doc_counts = np.unique(documents[0], return_counts=True)
        return CSRBatch(
            doc_counts.astype(np.float64),
            ids.astype(id_dtype),
            np.array([0, ids.size], dtype=id_dtype),
            (1, vocab_size),
        )
    sizes = np.fromiter((doc.size for doc in documents), np.int64, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices, counts = [np.zeros(0, dtype=id_dtype)], [np.zeros(0)]
    for start in range(0, n, _CSR_CHUNK_DOCS):
        stop = min(n, start + _CSR_CHUNK_DOCS)
        keys = np.repeat(np.arange(stop - start, dtype=np.int64), sizes[start:stop])
        keys *= vocab_size
        keys += np.concatenate(documents[start:stop], axis=None)
        keys, chunk_counts = np.unique(keys, return_counts=True)
        rows, ids = np.divmod(keys, vocab_size)
        indptr[start + 1 : stop + 1] = np.bincount(rows, minlength=stop - start)
        indices.append(ids.astype(id_dtype))
        counts.append(chunk_counts.astype(np.float64))
    np.cumsum(indptr, out=indptr)
    index_dtype = np.int32 if max(n, vocab_size, indptr[-1]) <= _INT32_MAX else np.int64
    return CSRBatch(
        np.concatenate(counts),
        np.concatenate(indices).astype(index_dtype, copy=False),
        indptr.astype(index_dtype, copy=False),
        (n, vocab_size),
    )


def incidence_matrix(counts: CSRBatch) -> sparse.csr_matrix:
    """0/1 doc-word incidence sharing ``counts``' structure arrays."""
    return sparse.csr_matrix(
        (np.ones_like(counts.data), counts.indices, counts.indptr),
        shape=counts.shape,
    )


def fingerprint_stats() -> dict[str, int]:
    """Counters of fingerprint computes / memo hits / documents hashed."""
    return dict(_FINGERPRINT_STATS)


def reset_fingerprint_stats() -> None:
    """Zero the fingerprint counters (tests use this)."""
    for key in _FINGERPRINT_STATS:
        _FINGERPRINT_STATS[key] = 0


@dataclass(frozen=True)
class CorpusStats:
    """The per-dataset statistics reported in Table I of the paper."""

    vocabulary_size: int
    num_documents: int
    average_length: float
    num_tokens: int

    def as_row(self) -> dict[str, float]:
        return {
            "Vocabulary Size": self.vocabulary_size,
            "Documents": self.num_documents,
            "Average Length": round(self.average_length, 1),
            "Number of Tokens": self.num_tokens,
        }


class Corpus:
    """Documents as token-id sequences, with an optional label per document.

    Parameters
    ----------
    documents:
        One list/array of token ids per document.  Must be non-empty lists of
        ids valid for ``vocabulary``.
    vocabulary:
        The (usually frozen) vocabulary the ids index into.
    labels:
        Optional integer class label per document (document labels exist for
        20NG and Yahoo in the paper; NYTimes has none).
    label_names:
        Optional printable name per label id.
    """

    def __init__(
        self,
        documents: Sequence[Sequence[int]],
        vocabulary: Vocabulary,
        labels: Sequence[int] | None = None,
        label_names: Sequence[str] | None = None,
    ):
        if not documents:
            raise CorpusError("corpus must contain at least one document")
        self.documents = [np.asarray(doc, dtype=np.int64) for doc in documents]
        self.vocabulary = vocabulary
        validate_documents(self.documents, len(vocabulary))
        if labels is not None:
            labels_arr = np.asarray(labels, dtype=np.int64)
            if labels_arr.shape != (len(self.documents),):
                raise CorpusError(
                    f"labels shape {labels_arr.shape} does not match "
                    f"{len(self.documents)} documents"
                )
            self.labels: np.ndarray | None = labels_arr
        else:
            self.labels = None
        self.label_names = list(label_names) if label_names is not None else None
        # Content-fingerprint memo: a running blake2b over document
        # payloads (advanced lazily, so an ``extend`` only ever hashes the
        # new documents) plus the finalized hex digest.  Invalidated by
        # any mutating operation (see :meth:`extend`).
        self._doc_digest = None
        self._digested_count = 0
        self._fingerprint: str | None = None
        self._bow_cache: np.ndarray | None = None
        self._bow_casts: dict[np.dtype, np.ndarray] = {}
        self._scipy_cache: sparse.csr_matrix | None = None
        self._csr_master: CSRBatch | None = None
        self._csr_casts: dict[np.dtype, CSRBatch] = {}
        # Cache-effectiveness counters: a "rebuild" is a from-scratch
        # materialization for a dtype, a "hit" a cached return.  With the
        # per-dtype dict caches each dtype rebuilds at most once per corpus
        # lifetime — alternating float32 training with float64 NPMI
        # evaluation no longer thrashes.
        self.cast_stats: dict[str, int] = {
            "bow_rebuilds": 0,
            "bow_hits": 0,
            "csr_rebuilds": 0,
            "csr_hits": 0,
        }

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.documents)

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    @property
    def num_labels(self) -> int:
        if self.labels is None:
            return 0
        return int(self.labels.max()) + 1

    def document_lengths(self) -> np.ndarray:
        return np.array([doc.size for doc in self.documents], dtype=np.int64)

    def stats(self) -> CorpusStats:
        """Statistics in the style of the paper's Table I."""
        lengths = self.document_lengths()
        return CorpusStats(
            vocabulary_size=self.vocab_size,
            num_documents=len(self),
            average_length=float(lengths.mean()),
            num_tokens=int(lengths.sum()),
        )

    # ------------------------------------------------------------------
    def content_fingerprint(self) -> str:
        """Memoised content hash of the documents (order-sensitive).

        Two corpora with identical document sequences over the same-sized
        vocabulary fingerprint identically regardless of how they were
        built — including a corpus grown by :meth:`extend`, whose
        fingerprint chains from the parent digest plus the new documents'
        delta digest instead of re-hashing every document.  The finalized
        hex digest is memoised, so a warm lookup does zero hashing work;
        every mutating operation invalidates the memo.
        """
        if self._fingerprint is not None and self._digested_count == len(
            self.documents
        ):
            _FINGERPRINT_STATS["memo_hits"] += 1
            return self._fingerprint
        if self._doc_digest is None:
            self._doc_digest = hashlib.blake2b(digest_size=16)
            self._digested_count = 0
        for doc in self.documents[self._digested_count:]:
            self._doc_digest.update(doc.size.to_bytes(8, "little"))
            self._doc_digest.update(np.ascontiguousarray(doc).tobytes())
            _FINGERPRINT_STATS["documents_hashed"] += 1
        self._digested_count = len(self.documents)
        final = hashlib.blake2b(digest_size=16)
        final.update(f"{len(self)}:{self.vocab_size}:".encode())
        final.update(self._doc_digest.copy().digest())
        self._fingerprint = final.hexdigest()
        _FINGERPRINT_STATS["computes"] += 1
        return self._fingerprint

    def extend(
        self,
        documents: Sequence[Sequence[int]],
        labels: Sequence[int] | None = None,
    ) -> int:
        """Append ``documents`` in place; returns how many were added.

        The streaming mutation: new documents join the corpus under the
        existing vocabulary, and every derived cache (dense/CSR BOW and
        their per-dtype casts) is invalidated.  The fingerprint memo is
        invalidated too, but the *running* document digest is kept — the
        next :meth:`content_fingerprint` hashes only the appended
        documents and still equals the fingerprint of an equal corpus
        built from scratch.

        ``labels`` is required exactly when the corpus is labeled (one
        label per new document) and rejected when it is not.
        """
        new_docs = [np.asarray(doc, dtype=np.int64) for doc in documents]
        validate_documents(new_docs, self.vocab_size, first_index=len(self.documents))
        if self.labels is not None:
            if labels is None:
                raise CorpusError(
                    "extend on a labeled corpus requires one label per document"
                )
            labels_arr = np.asarray(labels, dtype=np.int64)
            if labels_arr.shape != (len(new_docs),):
                raise CorpusError(
                    f"labels shape {labels_arr.shape} does not match "
                    f"{len(new_docs)} new documents"
                )
        elif labels is not None:
            raise CorpusError("extend on an unlabeled corpus got labels")
        if not new_docs:
            return 0
        self.documents.extend(new_docs)
        if self.labels is not None:
            self.labels = np.concatenate([self.labels, labels_arr])
        self._invalidate_caches()
        return len(new_docs)

    def _invalidate_caches(self) -> None:
        """Drop every derived cache after a mutating operation.

        The running document digest intentionally survives (it is
        position-consistent with the retained documents); only the
        finalized fingerprint memo and the materialized BOW forms go.
        """
        self._fingerprint = None
        self._bow_cache = None
        self._bow_casts = {}
        self._scipy_cache = None
        self._csr_master = None
        self._csr_casts = {}

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop the (unpicklable) running hash object; keep the memo."""
        state = dict(self.__dict__)
        state["_doc_digest"] = None
        state["_digested_count"] = (
            len(self.documents) if self._fingerprint is not None else 0
        )
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def bow_matrix(self, dtype=np.float64) -> np.ndarray:
        """Dense ``(docs, vocab)`` bag-of-words count matrix (cached).

        Each requested dtype is scattered **directly** from the cached CSR
        nonzeros into a zeroed array of that dtype — a float32 request
        never materialises a full-corpus float64 intermediate (counts are
        exact in either precision).  float64 results keep their dedicated
        cache slot; every other dtype — e.g. the active policy dtype from
        :func:`repro.tensor.dtypes.get_default_dtype`, as the trainer and
        ``transform`` do — gets its own entry in a per-dtype cast dict, so
        each dtype is built at most once per corpus lifetime even when
        requests alternate (float32 training interleaved with float64
        evaluation used to rebuild on every switch).
        """
        resolved = np.dtype(dtype)
        if resolved == np.float64:
            if self._bow_cache is None:
                self.cast_stats["bow_rebuilds"] += 1
                self._bow_cache = self.bow_csr(np.float64).toarray()
            else:
                self.cast_stats["bow_hits"] += 1
            return self._bow_cache
        if resolved not in self._bow_casts:
            self.cast_stats["bow_rebuilds"] += 1
            self._bow_casts[resolved] = self.bow_csr(resolved).toarray()
        else:
            self.cast_stats["bow_hits"] += 1
        return self._bow_casts[resolved]

    def bow_sparse(self) -> sparse.csr_matrix:
        """The float64 counts as a ``scipy.sparse`` CSR matrix (cached; do
        not mutate).  It wraps :meth:`bow_csr`'s arrays without a copy."""
        if self._scipy_cache is None:
            self._scipy_cache = self.bow_csr(np.float64).to_scipy()
        return self._scipy_cache

    def bow_csr(self, dtype=np.float64) -> CSRBatch:
        """The corpus counts as a :class:`~repro.tensor.sparse.CSRBatch`.

        This is the batch format of the sparse fast path:
        :class:`~repro.data.loaders.BatchIterator` gathers mini-batch row
        views from it and the fused ``*_csr`` kernels consume them without
        ever densifying.  Casts share the structure arrays
        (``indices``/``indptr``) and touch only the nnz ``data`` values;
        the per-dtype cast dict mirrors :meth:`bow_matrix`'s at O(nnz)
        cost instead of O(docs·vocab).
        """
        resolved = np.dtype(dtype)
        built_master = self._csr_master is None
        if built_master:
            self._csr_master = documents_to_csr(self.documents, self.vocab_size)
        if resolved == self._csr_master.dtype:
            key = "csr_rebuilds" if built_master else "csr_hits"
            self.cast_stats[key] += 1
            return self._csr_master
        if resolved not in self._csr_casts:
            self.cast_stats["csr_rebuilds"] += 1
            self._csr_casts[resolved] = self._csr_master.astype(resolved)
        else:
            self.cast_stats["csr_hits"] += 1
        return self._csr_casts[resolved]

    def bow_density(self) -> float:
        """Nonzero fraction of the bag-of-words matrix (sparse dispatch)."""
        return self.bow_csr(np.float64).density

    def binary_doc_word(self) -> sparse.csr_matrix:
        """Sparse boolean doc-word incidence (for NPMI co-occurrence)."""
        return incidence_matrix(self.bow_csr(np.float64))

    # ------------------------------------------------------------------
    def subset(self, indices: Iterable[int]) -> "Corpus":
        """A new corpus restricted to ``indices`` (shares the vocabulary)."""
        idx = list(indices)
        if not idx:
            raise CorpusError("subset indices must be non-empty")
        docs = [self.documents[i] for i in idx]
        labels = self.labels[idx] if self.labels is not None else None
        return Corpus(docs, self.vocabulary, labels=labels, label_names=self.label_names)

    def word_document_frequency(self) -> np.ndarray:
        """Number of documents containing each word, shape ``(vocab,)``."""
        return np.asarray(self.binary_doc_word().sum(axis=0)).ravel()

    def word_frequency(self) -> np.ndarray:
        """Total count of each word across the corpus, shape ``(vocab,)``."""
        return np.asarray(self.bow_sparse().sum(axis=0)).ravel()

    def top_words(self, n: int = 10) -> list[str]:
        """The ``n`` most frequent tokens in the corpus."""
        order = np.argsort(-self.word_frequency())[:n]
        return [self.vocabulary.token_of(int(i)) for i in order]

    def __repr__(self) -> str:
        labeled = "labeled" if self.labels is not None else "unlabeled"
        return f"Corpus(docs={len(self)}, vocab={self.vocab_size}, {labeled})"

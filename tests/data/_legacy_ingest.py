"""The per-document ingest loops as they stood before vectorisation, kept
verbatim as bitwise oracles.

* ``legacy_bow_sparse`` — ``Corpus.bow_sparse``'s per-document
  ``np.unique`` loop;
* ``legacy_validate_documents`` — ``Corpus._validate_documents``'s
  per-document check;
* ``legacy_update`` / ``legacy_as_incidence`` —
  ``DocumentCooccurrence.update``'s COO body (``tocoo`` +
  ``sum_duplicates`` + fancy-indexed scatter-add) and its slice
  normalisation, including the per-document token-id loop;
* ``legacy_transform`` — ``Preprocessor.transform``'s double lookup
  (``token in vocab`` then ``vocab.id_of``);
* ``legacy_fit`` — ``Preprocessor.fit``'s string ``Counter`` pass, before
  ``fit_transform`` kept provisional token ids to tokenize once.

The vectorised code claims bitwise equality with these: the same CSR
arrays and dtypes, the same counts, the same corpora and the same error
messages.
"""

from collections import Counter

import numpy as np
from scipy import sparse

from repro.data.corpus import Corpus
from repro.data.vocabulary import Vocabulary
from repro.data.preprocessing import simple_tokenize
from repro.errors import CorpusError, ShapeError


def legacy_bow_sparse(documents, vocab_size):
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for doc in documents:
        ids, counts = np.unique(doc, return_counts=True)
        indices.extend(ids.tolist())
        data.extend(counts.tolist())
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (
            np.array(data, dtype=np.float64),
            np.array(indices),
            np.array(indptr),
        ),
        shape=(len(documents), vocab_size),
    )


def legacy_validate_documents(documents, vocab_size: int, first_index: int) -> None:
    """Reject empty documents and out-of-vocabulary token ids."""
    for offset, doc in enumerate(documents):
        i = first_index + offset
        if doc.size == 0:
            raise CorpusError(f"document {i} is empty")
        if doc.min() < 0 or doc.max() >= vocab_size:
            raise CorpusError(
                f"document {i} has token ids outside [0, {vocab_size})"
            )


def legacy_binary_doc_word(corpus):
    mat = legacy_bow_sparse(corpus.documents, corpus.vocab_size)
    return sparse.csr_matrix(
        (np.ones_like(mat.data), mat.indices, mat.indptr),
        shape=mat.shape,
    )


def legacy_as_incidence(vocab, new_docs) -> sparse.csr_matrix:
    """Normalize any accepted slice form to 0/1 CSR over this vocab."""
    if isinstance(new_docs, Corpus):
        if new_docs.vocab_size != vocab:
            raise ShapeError(
                f"slice vocab {new_docs.vocab_size} != counts vocab {vocab}"
            )
        return legacy_binary_doc_word(new_docs)
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
    indptr = [0]
    indices: list[int] = []
    for i, doc in enumerate(docs):
        if doc.size == 0:
            raise CorpusError(f"slice document {i} is empty")
        if doc.min() < 0 or doc.max() >= vocab:
            raise CorpusError(
                f"slice document {i} has token ids outside [0, {vocab})"
            )
        ids = np.unique(doc)
        indices.extend(ids.tolist())
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (
            np.ones(len(indices), dtype=np.float64),
            np.array(indices, dtype=np.int64),
            np.array(indptr, dtype=np.int64),
        ),
        shape=(len(docs), vocab),
    )


def legacy_update(counts, new_docs) -> int:
    """The COO ``update`` body, applied to a ``DocumentCooccurrence``."""
    incidence = legacy_as_incidence(counts.vocab_size, new_docs)
    counts.update_stats["updates"] += 1
    added = incidence.shape[0]
    if added == 0:
        return 0
    delta = (incidence.T @ incidence).tocoo()
    delta.sum_duplicates()
    # Canonical COO has unique coordinates, so fancy-indexed += is an
    # exact scatter-add of integer-valued float64 counts.
    counts.joint[delta.row, delta.col] += delta.data
    counts.doc_freq += np.asarray(incidence.sum(axis=0)).ravel()
    counts.num_documents += added
    counts.update_stats["delta_nnz"] += int(delta.nnz)
    counts.update_stats["documents_added"] += added
    return int(delta.nnz)


def legacy_transform(preprocessor, texts, labels=None, label_names=None):
    """``Preprocessor.transform`` with its two dict lookups per token."""
    if preprocessor.vocabulary is None:
        raise CorpusError("Preprocessor.transform called before fit")
    vocab = preprocessor.vocabulary
    documents: list[list[int]] = []
    kept_labels: list[int] = []
    for i, text in enumerate(texts):
        ids = [
            vocab.id_of(token)
            for token in simple_tokenize(text)
            if token in vocab
        ]
        if len(ids) < preprocessor.config.min_doc_length:
            continue
        documents.append(ids)
        if labels is not None:
            kept_labels.append(int(labels[i]))
    if not documents:
        raise CorpusError("all documents were filtered out")
    return Corpus(
        documents,
        vocab,
        labels=kept_labels if labels is not None else None,
        label_names=label_names,
    )


def legacy_fit(preprocessor, texts):
    """The vocabulary ``Preprocessor.fit`` built from string counters."""
    if not texts:
        raise CorpusError("cannot fit a preprocessor on an empty text list")
    cfg = preprocessor.config
    doc_freq: Counter[str] = Counter()
    total_freq: Counter[str] = Counter()
    n_docs = len(texts)
    for text in texts:
        tokens = [t for t in simple_tokenize(text) if t not in cfg.stop_words]
        doc_freq.update(set(tokens))
        total_freq.update(tokens)

    max_df = cfg.max_doc_frequency * n_docs
    kept = [
        token
        for token, df in doc_freq.items()
        if cfg.min_doc_count <= df <= max_df
    ]
    # Order by descending corpus frequency (stable & interpretable ids).
    kept.sort(key=lambda t: (-total_freq[t], t))
    if cfg.max_vocab_size is not None:
        kept = kept[: cfg.max_vocab_size]
    if not kept:
        raise CorpusError(
            "preprocessing removed every token; relax the frequency filters"
        )
    return Vocabulary(kept).freeze()

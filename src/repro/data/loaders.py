"""Mini-batching and train/validation splitting over corpora."""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

from repro.data.corpus import Corpus
from repro.errors import ConfigError
from repro.tensor import dtypes
from repro.tensor.dtypes import get_sparse_policy
from repro.tensor.sparse import CSRBatch

#: What a batch iterator yields: a dense ``(batch, vocab)`` count matrix
#: on the reference path, or a :class:`~repro.tensor.sparse.CSRBatch` on
#: the sparse fast path.  Both support ``len``, ``.shape`` and
#: ``np.asarray`` densification, and every bag-of-words consumer in
#: :mod:`repro.models` accepts either.
Batch = Union[np.ndarray, CSRBatch]


class BatchIterator:
    """Yield shuffled bag-of-words mini-batches from a corpus.

    Each epoch re-shuffles with the supplied generator, so training is a
    deterministic function of (corpus, seed).  Batch format is chosen once
    per iterator by the sparse dispatch policy
    (:func:`repro.tensor.dtypes.get_sparse_policy`) against the corpus
    density:

    - **Sparse fast path** (policy enabled and the corpus is sparser than
      the threshold): batches are :class:`~repro.tensor.sparse.CSRBatch`
      row-gathers from the cached corpus CSR — O(batch nnz) per step, fed
      straight into the fused ``*_csr`` kernels.  A pathological batch
      that lands denser than the threshold (shuffling can concentrate the
      long documents) falls back to dense for that batch only.
    - **Dense reference path**: the matrix is materialized once in
      ``dtype`` — by default float64, but the trainer passes the active
      dtype policy (:func:`repro.tensor.dtypes.get_default_dtype`) — and
      each batch is a fancy-indexed view of it.

    Pass ``sparse=True``/``sparse=False`` to pin the format explicitly
    (tests and oracle comparisons do).
    """

    def __init__(
        self,
        corpus: Corpus,
        batch_size: int,
        rng: np.random.Generator,
        drop_last: bool = False,
        dtype: np.dtype | type | None = None,
        sparse: bool | None = None,
    ):
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self.corpus = corpus
        self.batch_size = batch_size
        self.drop_last = drop_last
        self._rng = rng
        policy = get_sparse_policy()
        if sparse is None:
            sparse = policy.use_sparse(corpus.bow_density())
        elif sparse and not policy.enabled:
            sparse = False  # REPRO_SPARSE=0 wins over a per-iterator opt-in
        self.sparse = bool(sparse)
        if self.sparse:
            self._csr = (
                corpus.bow_csr() if dtype is None else corpus.bow_csr(dtype=dtype)
            )
            self._bow = None
        else:
            self._csr = None
            self._bow = (
                corpus.bow_matrix()
                if dtype is None
                else corpus.bow_matrix(dtype=dtype)
            )

    def __len__(self) -> int:
        n = len(self.corpus)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def _materialize(self, batch_idx: np.ndarray) -> Batch:
        """Gather one batch in the chosen format (with density fallback)."""
        if not self.sparse:
            return self._bow[batch_idx]
        batch = self._csr.take_rows(batch_idx)
        if batch.density >= dtypes.SPARSE_DENSITY_THRESHOLD:
            # Dense enough that gather/scatter overhead loses to BLAS.
            return batch.toarray()
        return batch

    def __iter__(self) -> Iterator[Batch]:
        order = self._rng.permutation(len(self.corpus))
        for start in range(0, len(order), self.batch_size):
            batch_idx = order[start : start + self.batch_size]
            if self.drop_last and batch_idx.size < self.batch_size:
                return
            yield self._materialize(batch_idx)


def train_valid_split(
    corpus: Corpus, valid_fraction: float, rng: np.random.Generator
) -> tuple[Corpus, Corpus]:
    """Randomly split a corpus into train and validation subsets.

    Used for the paper's hyper-parameter grid search, which runs "on a
    validation set split from the training corpus".
    """
    if not 0.0 < valid_fraction < 1.0:
        raise ConfigError("valid_fraction must be in (0, 1)")
    n = len(corpus)
    n_valid = max(1, int(round(n * valid_fraction)))
    if n_valid >= n:
        raise ConfigError("validation split would consume the whole corpus")
    order = rng.permutation(n)
    valid_idx = order[:n_valid].tolist()
    train_idx = order[n_valid:].tolist()
    return corpus.subset(train_idx), corpus.subset(valid_idx)

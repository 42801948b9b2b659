"""Sliding-window co-occurrence counting over token sequences.

Unlike the document-level counts used for NPMI coherence, embedding
training uses window-level counts with the GloVe-style ``1/distance``
weighting.

The count has no per-document loop.  The documents are cut into
document-aligned blocks of about :data:`_BLOCK_TOKENS` tokens; no window
pair crosses a document, so none crosses a block.  For each offset ``d``
the pairs ``(t[k], t[k + d])`` that stay inside one document are counted
as exact integers ``c_d`` over pair ids ``i * V + j``, and each cell sums
``c_d * (1/d)`` in increasing ``d``.  The sum's order is fixed by the
offsets alone, so the block size and both counting branches below give
the same bits.  The dense branch counts block by block and then
symmetrizes its ``V x V`` sums in place of the sparse ``counts +
counts.T``, so it holds no array the size of the corpus; the
``np.unique`` branch still joins an offset's blocks before counting.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.data.corpus import Corpus
from repro.errors import ConfigError

#: Largest ``V * V`` whose pair counts use a dense accumulator.  The
#: dense branch holds four float64/int64 arrays of ``V * V`` cells at
#: most (8 MB each at this limit, V = 1,024); above it pair ids are
#: counted with ``np.unique``, whose memory scales with each offset's
#: in-document pairs, i.e. with the tokens.
_DENSE_PAIR_LIMIT = 1 << 20

#: Tokens per block of the count.  A block is a run of whole documents
#: that start within the same stretch of this many tokens, so its
#: per-token arrays (tokens, pair ids, the mask of in-document pairs)
#: scale with the block, not the corpus; a document longer than a block
#: makes a longer one.
_BLOCK_TOKENS = 1 << 16


def _pair_ids(documents: list[np.ndarray], sizes: np.ndarray, v: int, d: int):
    """Each block's ids ``i * v + j`` of the in-document pairs at offset ``d``.

    The pair at block position ``k`` leaves its document exactly when a
    document ends in ``(k, k + d]``, i.e. ``k`` is one of the ``d``
    positions before an end.
    """
    starts = np.cumsum(sizes) - sizes
    cuts = (np.flatnonzero(np.diff(starts // _BLOCK_TOKENS)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(documents)]):
        tokens = np.concatenate(documents[lo:hi])
        pair_ids = tokens[:-d] * v
        pair_ids += tokens[d:]
        crossing = (np.cumsum(sizes[lo:hi])[:, None] - np.arange(1, d + 1)).ravel()
        keep = np.ones(pair_ids.size, dtype=bool)
        keep[crossing[(crossing >= 0) & (crossing < pair_ids.size)]] = False
        yield pair_ids[keep]


def _csr(square: np.ndarray) -> sparse.csr_matrix:
    """The nonzero cells of a dense square, row-major, as int32-indexed CSR."""
    v = square.shape[0]
    flat = np.flatnonzero(square)
    indptr = np.searchsorted(flat, np.arange(0, v * v + 1, v)).astype(np.int32)
    indices = (flat % v).astype(np.int32)
    return sparse.csr_matrix((square.ravel()[flat], indices, indptr), shape=(v, v))


def window_cooccurrence_counts(
    corpus: Corpus,
    window_size: int = 5,
    distance_weighting: bool = True,
) -> sparse.csr_matrix:
    """Symmetric ``(vocab, vocab)`` window co-occurrence counts.

    Parameters
    ----------
    corpus:
        Token-id documents (order within documents matters here).
    window_size:
        Tokens to the right considered context (symmetrized).
    distance_weighting:
        GloVe's ``1/d`` weighting of a co-occurrence at distance ``d``.
    """
    if window_size < 1:
        raise ConfigError("window_size must be >= 1")
    v = corpus.vocab_size
    sizes = corpus.document_lengths()
    dense = v * v <= _DENSE_PAIR_LIMIT
    sums = np.zeros(v * v) if dense else None
    ids, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for d in range(1, min(window_size, int(sizes.max()) - 1) + 1):
        weight = 1.0 / d if distance_weighting else 1.0
        blocks = _pair_ids(corpus.documents, sizes, v, d)
        if dense:
            exact = np.zeros(v * v, dtype=np.int64)
            for pair_ids in blocks:
                # Unlike np.bincount, no V * V array per block.
                np.add.at(exact, pair_ids, 1)
            sums += exact * weight
        else:
            unique, counts = np.unique(np.concatenate(list(blocks)), return_counts=True)
            ids.append(unique)
            vals.append(counts * weight)
    if dense:
        # Symmetrizing the dense sums skips the sparse sum's index and
        # value copies: 9 MB off train-nyt's count peak.
        square = sums.reshape(v, v)
        return _csr(square + square.T)
    # bincount adds its weights in input order: increasing d per cell.
    pair_ids, inverse = np.unique(np.concatenate(ids), return_inverse=True)
    values = np.bincount(inverse, weights=np.concatenate(vals))
    rows, cols = np.divmod(pair_ids, v)
    counts = sparse.csr_matrix((values, (rows, cols)), shape=(v, v), dtype=np.float64)
    return counts + counts.T  # symmetrize

"""Sliding-window co-occurrence counting over token sequences.

Unlike the document-level counts used for NPMI coherence, embedding
training uses window-level counts with the GloVe-style ``1/distance``
weighting.

The count has no per-document loop.  The documents' tokens are
concatenated once; for each offset ``d`` the pairs ``(t[k], t[k + d])``
that stay inside one document are counted as exact integers ``c_d`` over
pair ids ``i * V + j``, and each cell sums ``c_d * (1/d)`` in increasing
``d``.  The sum's order is fixed by the offsets alone, so both counting
branches below give the same bits.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.data.corpus import Corpus
from repro.errors import ConfigError

#: Largest ``V * V`` whose pair counts use a dense ``np.bincount``.  The
#: dense branch holds a few float64/int64 arrays of ``V * V`` cells (8 MB
#: each at this limit, V = 1,024); above it the branch would outgrow the
#: token arrays themselves, so pair ids are counted with ``np.unique``,
#: whose memory scales with the tokens instead.
_DENSE_PAIR_LIMIT = 1 << 20


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
    tokens = np.concatenate(corpus.documents)
    # Tokens after each one in its own document: the pair at offset d
    # stays inside a document exactly when its left token has >= d.
    after = np.repeat(np.cumsum(sizes), sizes) - np.arange(1, tokens.size + 1)
    dense = v * v <= _DENSE_PAIR_LIMIT
    sums = np.zeros(v * v) if dense else None
    ids, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for d in range(1, min(window_size, tokens.size - 1) + 1):
        pair_ids = (tokens[:-d] * v + tokens[d:])[after[:-d] >= d]
        weight = 1.0 / d if distance_weighting else 1.0
        if dense:
            sums += np.bincount(pair_ids, minlength=v * v) * weight
        else:
            unique, counts = np.unique(pair_ids, return_counts=True)
            ids.append(unique)
            vals.append(counts * weight)
    if dense:
        pair_ids = np.flatnonzero(sums)
        values = sums[pair_ids]
    else:
        # bincount adds its weights in input order: increasing d per cell.
        pair_ids, inverse = np.unique(np.concatenate(ids), return_inverse=True)
        values = np.bincount(inverse, weights=np.concatenate(vals))
    rows, cols = np.divmod(pair_ids, v)
    counts = sparse.csr_matrix((values, (rows, cols)), shape=(v, v), dtype=np.float64)
    return counts + counts.T  # symmetrize

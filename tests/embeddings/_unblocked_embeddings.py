"""The embedding build as it stood before blocked counting, kept verbatim
as an oracle.

``window_cooccurrence_counts`` here concatenates every document's tokens
at once and builds its CSR by COO -> CSR -> ``counts + counts.T``;
``ppmi_matrix`` allocates a new array per step and ``svd_embeddings``
copies its input.  The library's versions must give the same bits.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds

from repro.errors import ConfigError, ShapeError

#: Largest ``V * V`` whose pair counts use a dense ``np.bincount``.  The
#: dense branch holds a few float64/int64 arrays of ``V * V`` cells (8 MB
#: each at this limit, V = 1,024); above it the branch would outgrow the
#: token arrays themselves, so pair ids are counted with ``np.unique``,
#: whose memory scales with the tokens instead.
_DENSE_PAIR_LIMIT = 1 << 20


def unblocked_window_counts(
    corpus,
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


def unblocked_ppmi_matrix(
    counts: sparse.spmatrix | np.ndarray,
    shift: float = 0.0,
    smoothing: float = 0.75,
) -> np.ndarray:
    """PPMI of a symmetric co-occurrence count matrix.

    ``PPMI_ij = max(0, log( p_ij / (p_i * q_j) ) - shift)`` where ``q`` is
    the context distribution raised to ``smoothing`` (the α=0.75 context
    smoothing of Levy, Goldberg & Dagan 2015, which improves rare-word
    vectors).

    Returns a dense matrix — vocabulary sizes here are small enough, and
    the SVD consumer needs dense anyway.
    """
    dense = counts.toarray() if sparse.issparse(counts) else np.asarray(counts, float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ShapeError(f"co-occurrence matrix must be square, got {dense.shape}")
    total = dense.sum()
    if total <= 0:
        return np.zeros_like(dense)
    joint = dense / total
    row = joint.sum(axis=1)
    context = joint.sum(axis=0)
    if smoothing != 1.0:
        context = context**smoothing
        context = context / context.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(joint) - np.log(np.outer(row, context))
    pmi = np.where(joint > 0, pmi, -np.inf)
    return np.maximum(pmi - shift, 0.0)


def unblocked_svd_embeddings(
    ppmi: np.ndarray,
    dim: int = 100,
    eigenvalue_weighting: float = 0.5,
) -> np.ndarray:
    """Rank-``dim`` embedding of a PPMI matrix via truncated SVD.

    ``W = U_d * S_d^p`` with ``p = eigenvalue_weighting`` (0.5, the
    symmetric choice, works best for word similarity per Levy et al. 2015).
    Rows are the word vectors.  Each column's sign is canonical (the
    svd_flip rule: its largest-magnitude entry is positive), so counts
    that differ by rounding give vectors that differ by rounding, not by
    a flipped column.
    """
    v = ppmi.shape[0]
    if not 1 <= dim < v:
        raise ConfigError(f"dim must be in [1, vocab_size={v}), got {dim}")
    # A fixed deterministic start vector makes the Lanczos iteration (and
    # hence the embeddings, models and checkpoints) bit-reproducible.
    v0 = np.linspace(1.0, 2.0, v)
    u, s, _ = svds(ppmi.astype(np.float64), k=dim, v0=v0)
    # svds returns ascending singular values; flip to conventional order.
    order = np.argsort(-s)
    u = u[:, order]
    s = s[order]
    u *= np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(dim)])
    weights = s**eigenvalue_weighting if eigenvalue_weighting != 0 else np.ones_like(s)
    return u * weights[None, :]

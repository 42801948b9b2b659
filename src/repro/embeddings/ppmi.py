"""Positive point-wise mutual information from co-occurrence counts."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ShapeError


def ppmi_matrix(
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
    the SVD consumer needs dense anyway.  After the normalisation each
    step writes into a buffer this function owns (never the caller's
    array), so at most three ``V * V`` float arrays and a boolean mask
    are alive at once; the ufuncs and their order, and so the bits, are
    those of a new array per step.
    """
    dense = counts.toarray() if sparse.issparse(counts) else np.asarray(counts, float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ShapeError(f"co-occurrence matrix must be square, got {dense.shape}")
    total = dense.sum()
    if total <= 0:
        return np.zeros_like(dense)
    joint = dense / total
    del dense
    row = joint.sum(axis=1)
    context = joint.sum(axis=0)
    if smoothing != 1.0:
        context = context**smoothing
        context = context / context.sum()
    marginals = np.outer(row, context)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(marginals, out=marginals)
        pmi = np.log(joint)
        pmi -= marginals  # -inf - -inf for a word with no counts
    del marginals
    np.copyto(pmi, -np.inf, where=~(joint > 0))
    pmi -= shift
    return np.maximum(pmi, 0.0, out=pmi)

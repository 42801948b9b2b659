"""Truncated-SVD embeddings from a PPMI matrix."""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import svds

from repro.errors import ConfigError


def svd_embeddings(
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
    u, s, _ = svds(np.asarray(ppmi, dtype=np.float64), k=dim, v0=v0)
    # svds returns ascending singular values; flip to conventional order.
    order = np.argsort(-s)
    u = u[:, order]
    s = s[order]
    u *= np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(dim)])
    weights = s**eigenvalue_weighting if eigenvalue_weighting != 0 else np.ones_like(s)
    return u * weights[None, :]

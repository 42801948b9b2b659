"""``window_cooccurrence_counts`` as it stood before vectorisation, kept
verbatim as an oracle.

The loop appends one ``1/d`` weight per token pair and lets the COO -> CSR
conversion sum them; the vectorised count sums exact per-offset integer
counts times ``1/d`` instead, so the two agree to float64 rounding
(1e-12 relative), not bitwise.
"""

import numpy as np
from scipy import sparse

from repro.errors import ConfigError


def legacy_window_counts(corpus, window_size=5, distance_weighting=True):
    if window_size < 1:
        raise ConfigError("window_size must be >= 1")
    v = corpus.vocab_size
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for doc in corpus.documents:
        n = doc.size
        for offset in range(1, min(window_size, n - 1) + 1):
            left = doc[:-offset]
            right = doc[offset:]
            weight = 1.0 / offset if distance_weighting else 1.0
            w = np.full(left.size, weight)
            rows.append(left)
            cols.append(right)
            vals.append(w)
    if not rows:
        return sparse.csr_matrix((v, v))
    row = np.concatenate(rows)
    col = np.concatenate(cols)
    val = np.concatenate(vals)
    counts = sparse.coo_matrix((val, (row, col)), shape=(v, v)).tocsr()
    return counts + counts.T  # symmetrize

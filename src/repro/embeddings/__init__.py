"""Word-embedding substrate.

The paper freezes GloVe vectors pre-trained on Wikipedia.  Offline, we train
embeddings on the corpus itself: PPMI of GloVe-style ``1/d`` window
co-occurrence counts, factorized with a truncated SVD (Levy & Goldberg 2014
showed this family encodes the same shifted-PMI statistics as GloVe/SGNS).
"""

from repro.embeddings.window_cooccurrence import window_cooccurrence_counts
from repro.embeddings.ppmi import ppmi_matrix
from repro.embeddings.svd_embeddings import svd_embeddings
from repro.embeddings.store import EmbeddingStore, build_embeddings

__all__ = [
    "window_cooccurrence_counts",
    "ppmi_matrix",
    "svd_embeddings",
    "EmbeddingStore",
    "build_embeddings",
]

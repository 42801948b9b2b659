"""Embedding store: vectors aligned to a vocabulary, with neighbour lookup."""

from __future__ import annotations

import numpy as np

from repro.data.corpus import Corpus
from repro.data.vocabulary import Vocabulary
from repro.embeddings.ppmi import ppmi_matrix
from repro.embeddings.svd_embeddings import svd_embeddings
from repro.embeddings.window_cooccurrence import window_cooccurrence_counts
from repro.errors import ShapeError


class EmbeddingStore:
    """Word vectors aligned with a vocabulary.

    The models consume :attr:`vectors` directly (as the frozen ρ matrix of
    ETM); the convenience methods exist for inspection and tests.
    """

    def __init__(self, vocabulary: Vocabulary, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(vocabulary):
            raise ShapeError(
                f"vectors shape {vectors.shape} does not match vocabulary "
                f"size {len(vocabulary)}"
            )
        self.vocabulary = vocabulary
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.vocabulary.id_of(token)]

    def cosine_similarity(self, token_a: str, token_b: str) -> float:
        a = self.vector(token_a)
        b = self.vector(token_b)
        denom = float(np.linalg.norm(a) * np.linalg.norm(b)) + 1e-12
        return float(a @ b) / denom

    def nearest(self, token: str, n: int = 5) -> list[tuple[str, float]]:
        """``n`` nearest tokens by cosine similarity (excluding itself)."""
        target = self.vector(token)
        norms = np.linalg.norm(self.vectors, axis=1) + 1e-12
        sims = (self.vectors @ target) / (norms * (np.linalg.norm(target) + 1e-12))
        order = np.argsort(-sims)
        results: list[tuple[str, float]] = []
        for idx in order:
            word = self.vocabulary.token_of(int(idx))
            if word == token:
                continue
            results.append((word, float(sims[idx])))
            if len(results) == n:
                break
        return results


def build_embeddings(
    corpus: Corpus, dim: int = 100, window_size: int = 5
) -> EmbeddingStore:
    """Train corpus embeddings: PPMI of the window counts, truncated SVD.

    ``dim`` is clamped to ``vocab_size - 1``, the most a truncated SVD
    can return.
    """
    dim = min(dim, corpus.vocab_size - 1)
    counts = window_cooccurrence_counts(corpus, window_size=window_size)
    vectors = svd_embeddings(ppmi_matrix(counts), dim=dim)
    return EmbeddingStore(corpus.vocabulary, vectors)

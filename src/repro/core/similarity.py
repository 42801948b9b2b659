"""Similarity kernels K(·) for the topic-wise contrastive regularizer.

The paper's K(·) "can be implemented with dot product of word embeddings or
the pre-computed Normalized Point-wise Mutual Information (NPMI) in the
corpus", and the paper argues for (and uses) NPMI; the embedding inner
product is the ContraTopic-I ablation.

A kernel here is a constant V×V matrix of pairwise word similarities; the
contrastive loss consumes ``exp(kernel)`` (Eq. 2 exponentiates K), which is
precomputed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.metrics.npmi import NpmiMatrix


@dataclass
class SimilarityKernel:
    """A precomputed pairwise word-similarity kernel and its exponential.

    ``temperature`` divides the similarities inside the exponential of
    Eq. 2 (standard contrastive-learning practice, cf. SupCon's τ): with
    similarities in [-1, 1], a small temperature sharpens the contrast
    between related and unrelated word pairs so positive/negative structure
    is not drowned by the O(K·v) noise floor of the denominator.
    """

    name: str
    matrix: np.ndarray      # (V, V) similarities, symmetric
    exp_matrix: np.ndarray  # exp(matrix / temperature), precomputed for Eq. 2
    temperature: float = 1.0
    #: Monotonically increasing revision of :attr:`matrix`.  A streaming
    #: consumer bumps it through :meth:`refresh` after mutating the
    #: matrix in place; the per-dtype caches below are refreshed
    #: by delta (values copied into the existing buffers) instead of
    #: being thrown away and reallocated.
    version: int = 0

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    def refresh(self, matrix: np.ndarray | None = None) -> int:
        """Recompute :attr:`exp_matrix` in place after the matrix moved.

        The streaming update path: mutate :attr:`matrix` in place (or
        pass ``matrix`` to have its values copied in), then ``refresh``
        re-exponentiates into the *existing* ``exp_matrix`` buffer,
        bumps :attr:`version`, and rewrites every cached per-dtype array
        in place — no V×V reallocations, and any long-lived reference to
        the cached arrays observes the new values.  Returns the new
        version.
        """
        if matrix is not None and matrix is not self.matrix:
            if matrix.shape != self.matrix.shape:
                raise ShapeError(
                    f"refresh matrix shape {matrix.shape} != kernel shape "
                    f"{self.matrix.shape}"
                )
            np.copyto(self.matrix, matrix)
        np.divide(self.matrix, self.temperature, out=self.exp_matrix)
        np.exp(self.exp_matrix, out=self.exp_matrix)
        self.version += 1
        cache = self.__dict__.get("_dtype_cache") or {}
        for exp, diag in cache.values():
            if exp is not self.exp_matrix:
                np.copyto(exp, self.exp_matrix)
            np.copyto(diag, np.diagonal(exp))
        return self.version

    # ------------------------------------------------------------------
    # per-dtype constant cache
    # ------------------------------------------------------------------
    # The contrastive loss reads exp(K) and its diagonal every training
    # step.  Under a float32 policy casting the (V, V) matrix per batch
    # would re-copy it each call, so the cast arrays are cached per dtype.

    def exp_matrix_as(self, dtype: np.dtype) -> np.ndarray:
        """Cached ``exp_matrix`` in ``dtype`` (the buffer itself in its own dtype)."""
        return self._cached(dtype)[0]

    def exp_diag_as(self, dtype: np.dtype) -> np.ndarray:
        """Cached ``diag(exp_matrix)`` in ``dtype``."""
        return self._cached(dtype)[1]

    def _cached(self, dtype: np.dtype) -> "tuple[np.ndarray, np.ndarray]":
        dtype = np.dtype(dtype)
        cache = self.__dict__.setdefault("_dtype_cache", {})
        entry = cache.get(dtype)
        if entry is None:
            exp = self.exp_matrix.astype(dtype, copy=False)
            entry = (exp, np.ascontiguousarray(np.diag(exp)))
            cache[dtype] = entry
        return entry


def npmi_kernel(npmi: NpmiMatrix, temperature: float = 0.25) -> SimilarityKernel:
    """The paper's choice: K(w_i, w_j) = NPMI(w_i, w_j) ∈ [-1, 1].

    "the incorporation of mutual information estimation resonates with our
    contrastive term's objectives" (§IV.A).
    """
    if temperature <= 0:
        raise ShapeError("kernel temperature must be positive")
    matrix = npmi.matrix.copy()
    return SimilarityKernel(
        name="npmi",
        matrix=matrix,
        exp_matrix=np.exp(matrix / temperature),
        temperature=temperature,
    )


def embedding_kernel(
    word_embeddings: np.ndarray, temperature: float = 0.25
) -> SimilarityKernel:
    """ContraTopic-I: K = cosine inner product of (frozen) word embeddings.

    Embeddings are row-normalized so the kernel shares NPMI's [-1, 1]
    range, keeping λ comparable across kernels.
    """
    if temperature <= 0:
        raise ShapeError("kernel temperature must be positive")
    emb = np.asarray(word_embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ShapeError(f"embeddings must be 2-D, got {emb.shape}")
    norms = np.linalg.norm(emb, axis=1, keepdims=True) + 1e-12
    unit = emb / norms
    matrix = np.clip(unit @ unit.T, -1.0, 1.0)
    return SimilarityKernel(
        name="inner",
        matrix=matrix,
        exp_matrix=np.exp(matrix / temperature),
        temperature=temperature,
    )

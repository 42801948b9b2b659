"""KMeans with k-means++ initialisation, implemented from scratch.

Used by the paper's document-representation evaluation: "we apply the
KMeans algorithm on test data and report the scores of the KMeans clusters
(denoted by km-Purity and km-NMI) ... The number of clusters in KMeans
varies in the range of 20, 40, 60, 80, 100."
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ConvergenceError, NotFittedError


class KMeans:
    """Lloyd's algorithm with k-means++ seeding and empty-cluster repair.

    Parameters
    ----------
    n_clusters:
        Number of centroids.
    max_iterations:
        Lloyd iteration budget per restart.
    n_restarts:
        Independent seedings; the lowest-inertia run wins.
    tolerance:
        Relative centroid-shift threshold for convergence.
    """

    def __init__(
        self,
        n_clusters: int,
        max_iterations: int = 100,
        n_restarts: int = 3,
        tolerance: float = 1e-6,
        seed: int = 0,
    ):
        if n_clusters < 1:
            raise ConfigError("n_clusters must be >= 1")
        if max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if n_restarts < 1:
            raise ConfigError("n_restarts must be >= 1")
        self.n_clusters = n_clusters
        self.max_iterations = max_iterations
        self.n_restarts = n_restarts
        self.tolerance = tolerance
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self.inertia: float | None = None

    # ------------------------------------------------------------------
    def fit(self, points: np.ndarray) -> "KMeans":
        """Cluster ``(n, d)`` points; keeps the best of ``n_restarts`` runs."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ConfigError(f"points must be 2-D, got shape {points.shape}")
        if points.shape[0] < self.n_clusters:
            raise ConfigError(
                f"cannot form {self.n_clusters} clusters from "
                f"{points.shape[0]} points"
            )
        best_inertia = np.inf
        best_centroids: np.ndarray | None = None
        for restart in range(self.n_restarts):
            rng = np.random.default_rng(self.seed + restart)
            centroids = self._plus_plus_init(points, rng)
            centroids, inertia = self._lloyd(points, centroids, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                best_centroids = centroids
        if best_centroids is None:  # pragma: no cover - defensive
            raise ConvergenceError("kmeans failed to produce any clustering")
        self.centroids = best_centroids
        self.inertia = float(best_inertia)
        return self

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Assign each point to its nearest centroid."""
        if self.centroids is None:
            raise NotFittedError("KMeans.predict called before fit")
        points = np.asarray(points, dtype=np.float64)
        return self._assign(points, self.centroids)

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        return self.fit(points).predict(points)

    # ------------------------------------------------------------------
    def _plus_plus_init(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """k-means++ seeding: each new centroid ∝ squared distance."""
        n = points.shape[0]
        centroids = np.empty((self.n_clusters, points.shape[1]))
        first = int(rng.integers(n))
        centroids[0] = points[first]
        closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
        for k in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0:
                # All remaining points coincide with a centroid; pick any.
                idx = int(rng.integers(n))
            else:
                idx = int(rng.choice(n, p=closest_sq / total))
            centroids[k] = points[idx]
            dist_sq = ((points - centroids[k]) ** 2).sum(axis=1)
            closest_sq = np.minimum(closest_sq, dist_sq)
        return centroids

    @staticmethod
    def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Nearest-centroid assignment via the expanded-norm trick."""
        cross = points @ centroids.T
        c_norms = (centroids**2).sum(axis=1)
        distances = c_norms[None, :] - 2.0 * cross  # point norms are constant
        return np.argmin(distances, axis=1)

    def _lloyd(
        self,
        points: np.ndarray,
        centroids: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, float]:
        assignments = self._assign(points, centroids)
        for _ in range(self.max_iterations):
            new_centroids = np.zeros_like(centroids)
            counts = np.bincount(assignments, minlength=self.n_clusters)
            np.add.at(new_centroids, assignments, points)
            empty = counts == 0
            counts_safe = np.maximum(counts, 1)
            new_centroids /= counts_safe[:, None]
            if empty.any():
                # Re-seed empty clusters at the points farthest from their
                # current centroid (standard repair strategy).
                dist_sq = ((points - new_centroids[assignments]) ** 2).sum(axis=1)
                far = np.argsort(-dist_sq)[: int(empty.sum())]
                new_centroids[empty] = points[far]
            shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum()))
            centroids = new_centroids
            assignments = self._assign(points, centroids)
            if shift <= self.tolerance * (1.0 + float(np.abs(centroids).sum())):
                break
        inertia = float(((points - centroids[assignments]) ** 2).sum())
        return centroids, inertia

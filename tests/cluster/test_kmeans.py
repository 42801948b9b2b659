"""KMeans correctness on separable data plus API contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import KMeans
from repro.errors import ConfigError, NotFittedError
from repro.metrics import purity


def _blobs(rng, centers, n_per=30, spread=0.05):
    points = []
    labels = []
    for i, center in enumerate(centers):
        points.append(center + rng.normal(scale=spread, size=(n_per, len(center))))
        labels.extend([i] * n_per)
    return np.concatenate(points), np.array(labels)


class TestClusteringQuality:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(0)
        points, labels = _blobs(rng, [np.zeros(2), np.ones(2) * 5, [-5.0, 5.0]])
        assignments = KMeans(3, seed=0).fit_predict(points)
        assert purity(assignments, labels) == 1.0

    def test_inertia_beats_random_assignment(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(100, 4))
        model = KMeans(5, seed=0).fit(points)
        random_centroids = rng.normal(size=(5, 4))
        random_assign = KMeans._assign(points, random_centroids)
        random_inertia = ((points - random_centroids[random_assign]) ** 2).sum()
        assert model.inertia < random_inertia

    def test_single_cluster(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20, 3))
        model = KMeans(1, seed=0).fit(points)
        np.testing.assert_allclose(
            model.centroids[0], points.mean(axis=0), atol=1e-8
        )

    def test_duplicate_points_handled(self):
        points = np.zeros((10, 2))
        assignments = KMeans(3, seed=0).fit_predict(points)
        assert assignments.shape == (10,)

    def test_k_equals_n(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(6, 2)) * 10
        assignments = KMeans(6, seed=0, n_restarts=5).fit_predict(points)
        # with k = n and well-separated points, clusters are singletons
        assert len(set(assignments.tolist())) == 6


class TestApi:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 3))
        a = KMeans(4, seed=7).fit_predict(points)
        b = KMeans(4, seed=7).fit_predict(points)
        np.testing.assert_array_equal(a, b)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            KMeans(2).predict(np.zeros((3, 2)))

    def test_predict_consistent_with_fit(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(40, 2))
        model = KMeans(3, seed=0).fit(points)
        np.testing.assert_array_equal(
            model.predict(points), model.predict(points.copy())
        )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            KMeans(0)
        with pytest.raises(ConfigError):
            KMeans(2, max_iterations=0)
        with pytest.raises(ConfigError):
            KMeans(2, n_restarts=0)
        with pytest.raises(ConfigError):
            KMeans(2).fit(np.zeros(5))
        with pytest.raises(ConfigError):
            KMeans(10).fit(np.zeros((3, 2)))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=40),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_assignment_invariants(n, k, seed):
    """Every point gets a cluster in range; inertia is non-negative."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    model = KMeans(k, seed=seed, n_restarts=1).fit(points)
    assignments = model.predict(points)
    assert assignments.shape == (n,)
    assert assignments.min() >= 0 and assignments.max() < k
    assert model.inertia >= 0.0

"""Initializer shapes, ranges and determinism."""

import numpy as np
import pytest

from repro.nn import init


class TestShapesAndRanges:
    def test_xavier_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((100, 50), rng)
        bound = np.sqrt(6.0 / 150.0)
        assert w.shape == (100, 50)
        assert np.abs(w).max() <= bound

    def test_normal_std(self):
        rng = np.random.default_rng(0)
        w = init.normal((5000,), rng, std=0.5)
        assert abs(w.std() - 0.5) < 0.05

    def test_zeros_ones(self):
        assert (init.zeros((3, 2)) == 0).all()
        assert (init.ones((4,)) == 1).all()

    def test_1d_fans(self):
        rng = np.random.default_rng(0)
        assert init.xavier_uniform((7,), rng).shape == (7,)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            init.xavier_uniform((), np.random.default_rng(0))


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = init.xavier_uniform((4, 4), np.random.default_rng(9))
        b = init.xavier_uniform((4, 4), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_weights(self):
        a = init.xavier_uniform((4, 4), np.random.default_rng(1))
        b = init.xavier_uniform((4, 4), np.random.default_rng(2))
        assert not np.allclose(a, b)

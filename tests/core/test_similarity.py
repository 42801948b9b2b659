"""Similarity kernels K(·) and their properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ContrastiveMode, embedding_kernel, npmi_kernel, topic_contrastive_loss
from repro.errors import ShapeError
from repro.metrics import NpmiMatrix
from repro.tensor import Tensor


class TestNpmiKernel:
    def test_exp_matrix_consistent(self, tiny_npmi):
        kernel = npmi_kernel(tiny_npmi, temperature=0.5)
        np.testing.assert_allclose(kernel.exp_matrix, np.exp(kernel.matrix / 0.5))
        assert kernel.name == "npmi"
        assert kernel.temperature == 0.5

    def test_temperature_sharpens_contrast(self, tiny_npmi):
        warm = npmi_kernel(tiny_npmi, temperature=1.0)
        cold = npmi_kernel(tiny_npmi, temperature=0.2)
        ratio_warm = warm.exp_matrix.max() / warm.exp_matrix.min()
        ratio_cold = cold.exp_matrix.max() / cold.exp_matrix.min()
        assert ratio_cold > ratio_warm

    def test_invalid_temperature(self, tiny_npmi):
        with pytest.raises(ShapeError):
            npmi_kernel(tiny_npmi, temperature=0.0)


class TestEmbeddingKernel:
    def test_cosine_range(self, tiny_embeddings):
        kernel = embedding_kernel(tiny_embeddings.vectors)
        assert kernel.matrix.min() >= -1.0
        assert kernel.matrix.max() <= 1.0
        np.testing.assert_allclose(np.diag(kernel.matrix), 1.0, atol=1e-9)

    def test_symmetric(self, tiny_embeddings):
        kernel = embedding_kernel(tiny_embeddings.vectors)
        np.testing.assert_allclose(kernel.matrix, kernel.matrix.T)

    def test_requires_2d(self):
        with pytest.raises(ShapeError):
            embedding_kernel(np.zeros(5))

    def test_invalid_temperature(self, tiny_embeddings):
        with pytest.raises(ShapeError):
            embedding_kernel(tiny_embeddings.vectors, temperature=-1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_loss_invariant_to_topic_permutation(seed):
    """Eq. 2 treats topics symmetrically: permuting topic rows of the
    sample matrix must not change the loss."""
    rng = np.random.default_rng(seed)
    v, k = 8, 4
    matrix = rng.uniform(-1, 1, size=(v, v))
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 1.0)
    kernel = npmi_kernel(NpmiMatrix(matrix), temperature=0.5)
    samples = np.abs(rng.normal(size=(k, v))) + 0.05
    permutation = rng.permutation(k)
    for mode in ContrastiveMode:
        original = topic_contrastive_loss(Tensor(samples), kernel, mode=mode).item()
        permuted = topic_contrastive_loss(
            Tensor(samples[permutation]), kernel, mode=mode
        ).item()
        assert original == pytest.approx(permuted, rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_loss_invariant_to_consistent_word_relabeling(seed):
    """Relabeling words (permuting the vocabulary consistently in both the
    kernel and the samples) must not change the loss."""
    rng = np.random.default_rng(seed)
    v, k = 7, 3
    matrix = rng.uniform(-1, 1, size=(v, v))
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 1.0)
    samples = np.abs(rng.normal(size=(k, v))) + 0.05
    perm = rng.permutation(v)

    kernel_a = npmi_kernel(NpmiMatrix(matrix), temperature=0.5)
    kernel_b = npmi_kernel(
        NpmiMatrix(matrix[np.ix_(perm, perm)]), temperature=0.5
    )
    a = topic_contrastive_loss(Tensor(samples), kernel_a).item()
    b = topic_contrastive_loss(Tensor(samples[:, perm]), kernel_b).item()
    assert a == pytest.approx(b, rel=1e-10)


class TestRefresh:
    def _kernel(self, vocab=5, temperature=0.5):
        rng = np.random.default_rng(0)
        sym = rng.uniform(-1, 1, size=(vocab, vocab))
        sym = np.clip((sym + sym.T) / 2, -1, 1)
        return npmi_kernel(NpmiMatrix(sym), temperature=temperature)

    def test_in_place_mutation_then_refresh(self):
        kernel = self._kernel()
        exp_buffer = kernel.exp_matrix
        assert kernel.version == 0
        kernel.matrix *= 0.5
        assert kernel.refresh() == 1
        assert kernel.exp_matrix is exp_buffer  # no reallocation
        np.testing.assert_allclose(
            kernel.exp_matrix, np.exp(kernel.matrix / kernel.temperature)
        )
        assert kernel.refresh() == 2  # version is monotonic

    def test_refresh_copies_external_matrix(self):
        kernel = self._kernel()
        replacement = np.zeros_like(kernel.matrix)
        kernel.refresh(replacement)
        np.testing.assert_array_equal(kernel.matrix, replacement)
        np.testing.assert_allclose(kernel.exp_matrix, np.ones_like(replacement))
        with pytest.raises(ShapeError):
            kernel.refresh(np.zeros((2, 2)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cached_tensors_refresh_in_place(self, dtype):
        kernel = self._kernel()
        exp = kernel.exp_matrix_as(np.dtype(dtype))
        diag = kernel.exp_diag_as(np.dtype(dtype))
        kernel.matrix *= 0.25
        kernel.refresh()
        # Long-lived consumers keep the same arrays and observe the
        # refreshed values through them.
        assert kernel.exp_matrix_as(np.dtype(dtype)) is exp
        assert kernel.exp_diag_as(np.dtype(dtype)) is diag
        np.testing.assert_allclose(
            exp,
            np.exp(kernel.matrix / kernel.temperature).astype(dtype),
            rtol=1e-6,
        )
        np.testing.assert_allclose(diag, np.diagonal(exp), rtol=1e-6)

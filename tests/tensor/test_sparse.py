"""CSR batch format + sparse fused kernels vs the dense reference oracle.

The dense kernels are the oracle: every ``*_csr`` kernel must match its
dense twin — outputs *and* gradients — to 1e-6 (they agree far tighter in
float64; the bound is the acceptance criterion).  Structural tests cover
zero-copy slicing, empty documents, all-zero batches and the density
edges of the auto-dispatch policy.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, fused, gradcheck
from repro.tensor.dtypes import (
    SPARSE_DENSITY_THRESHOLD,
    SparsePolicy,
    get_sparse_policy,
    sparse_policy,
)
from repro.tensor.sparse import CSRBatch, sparse_dense_product, transpose_contiguous

RNG = np.random.default_rng(11)
TOL = 1e-6  # acceptance bound for dense-vs-sparse values and gradients


def _sparse_counts(batch=9, vocab=23, density=0.2, dtype=np.float64):
    dense = np.where(
        RNG.random((batch, vocab)) < density,
        RNG.integers(1, 5, size=(batch, vocab)),
        0,
    ).astype(dtype)
    return dense, CSRBatch.from_dense(dense)


class TestCSRBatch:
    def test_round_trip_matches_dense(self):
        dense, csr = _sparse_counts()
        np.testing.assert_array_equal(csr.toarray(), dense)
        np.testing.assert_array_equal(np.asarray(csr), dense)
        assert csr.shape == dense.shape
        assert len(csr) == dense.shape[0]
        assert csr.nnz == np.count_nonzero(dense)
        assert csr.density == pytest.approx(csr.nnz / dense.size)

    def test_from_scipy_canonicalizes(self):
        from scipy import sparse as sp

        dense, _ = _sparse_counts()
        coo = sp.coo_matrix(dense)
        csr = CSRBatch.from_scipy(coo)
        np.testing.assert_array_equal(csr.toarray(), dense)

    def test_slice_rows_is_zero_copy(self):
        dense, csr = _sparse_counts()
        view = csr.slice_rows(2, 6)
        np.testing.assert_array_equal(view.toarray(), dense[2:6])
        assert np.shares_memory(view.data, csr.data)
        assert np.shares_memory(view.indices, csr.indices)

    def test_take_rows_matches_fancy_indexing(self):
        dense, csr = _sparse_counts()
        idx = np.array([7, 0, 3, 3, 8])
        np.testing.assert_array_equal(csr.take_rows(idx).toarray(), dense[idx])

    def test_empty_documents_survive_gather(self):
        dense = np.zeros((5, 11))
        dense[1, 3] = 2.0  # rows 0, 2, 3, 4 are empty documents
        csr = CSRBatch.from_dense(dense)
        idx = np.array([0, 4, 1, 2])
        gathered = csr.take_rows(idx)
        np.testing.assert_array_equal(gathered.toarray(), dense[idx])
        assert gathered.row_nnz().tolist() == [0, 0, 1, 0]

    def test_all_zero_batch(self):
        csr = CSRBatch.from_dense(np.zeros((4, 7)))
        assert csr.nnz == 0
        assert csr.density == 0.0
        np.testing.assert_array_equal(csr.toarray(), np.zeros((4, 7)))
        np.testing.assert_array_equal(
            csr.row_normalized().toarray(), np.zeros((4, 7))
        )

    def test_astype_shares_structure(self):
        _, csr = _sparse_counts()
        cast = csr.astype(np.float32)
        assert cast.dtype == np.float32
        assert np.shares_memory(cast.indices, csr.indices)
        np.testing.assert_allclose(cast.toarray(), csr.toarray(), rtol=1e-6)

    def test_copy_is_deep(self):
        _, csr = _sparse_counts()
        dup = csr.copy()
        dup.data[:] = -1.0
        assert not np.shares_memory(dup.data, csr.data)
        assert (csr.data >= 0).all()

    def test_row_normalized_matches_dense_division(self):
        dense, csr = _sparse_counts()
        totals = np.maximum(dense.sum(axis=1, keepdims=True), 1.0)
        # Bit-identical, not just close: the sparse path divides the same
        # float values the dense path divides.
        np.testing.assert_array_equal(
            csr.row_normalized().toarray(), dense / totals
        )

    def test_matmul_dense_both_directions(self):
        dense, csr = _sparse_counts()
        w = RNG.normal(size=(dense.shape[1], 6))
        np.testing.assert_allclose(csr.matmul_dense(w), dense @ w, atol=1e-12)
        g = RNG.normal(size=(dense.shape[0], 6))
        np.testing.assert_allclose(
            csr.t_matmul_dense(g), dense.T @ g, atol=1e-12
        )

    def test_transpose_contiguous(self):
        for shape in [(3, 5), (700, 40), (40, 700), (1, 1)]:
            a = RNG.normal(size=shape)
            out = transpose_contiguous(a)
            assert out.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(out, a.T)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            CSRBatch(np.ones(2), np.array([0, 1]), np.array([0, 2]), (3, 4))


class TestDirectKernel:
    """``sparse_dense_product`` runs scipy's own kernel without a matrix
    object, so it must equal ``to_scipy() @ dense`` bit for bit."""

    @staticmethod
    def _batch(dtype, index_dtype, rows=11, cols=17, empty_rows=(0, 4, 10)):
        dense = np.where(
            RNG.random((rows, cols)) < 0.3, RNG.normal(size=(rows, cols)), 0.0
        ).astype(dtype)
        dense[list(empty_rows)] = 0.0
        csr = CSRBatch.from_dense(dense)
        return CSRBatch(
            csr.data,
            csr.indices.astype(index_dtype),
            csr.indptr.astype(index_dtype),
            csr.shape,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("width", [1, 6])
    def test_bitwise_equal_to_scipy(self, dtype, index_dtype, width):
        batch = self._batch(dtype, index_dtype)
        assert batch.indices.dtype == index_dtype
        assert (batch.row_nnz() == 0).any()
        right = RNG.normal(size=(batch.shape[1], width)).astype(dtype)
        left = RNG.normal(size=(batch.shape[0], width)).astype(dtype)
        for got, want in [
            (sparse_dense_product(batch, right), batch.to_scipy() @ right),
            (batch.matmul_dense(right), batch.to_scipy() @ right),
            (
                sparse_dense_product(batch, left, transpose=True),
                batch.to_scipy().T @ left,
            ),
            (batch.t_matmul_dense(left), batch.to_scipy().T @ left),
        ]:
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transposed_view_operand(self, dtype):
        # The linear_csr forward hands over ``weight.T``; the blocked copy
        # must give the same bits as scipy's own C-order ravel.
        batch = self._batch(dtype, np.int32)
        weight = RNG.normal(size=(5, batch.shape[1])).astype(dtype)
        np.testing.assert_array_equal(
            batch.matmul_dense(weight.T), batch.to_scipy() @ weight.T
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_zero_nnz_batch(self, dtype, index_dtype):
        batch = CSRBatch(
            np.zeros(0, dtype),
            np.zeros(0, index_dtype),
            np.zeros(4, index_dtype),
            (3, 7),
        )
        right = RNG.normal(size=(7, 2)).astype(dtype)
        left = RNG.normal(size=(3, 2)).astype(dtype)
        np.testing.assert_array_equal(
            sparse_dense_product(batch, right), batch.to_scipy() @ right
        )
        np.testing.assert_array_equal(
            sparse_dense_product(batch, left, transpose=True),
            batch.to_scipy().T @ left,
        )
        assert not sparse_dense_product(batch, right).any()

    def test_mixed_precision_upcasts_like_scipy(self):
        batch = self._batch(np.float32, np.int32)
        right = RNG.normal(size=(batch.shape[1], 3))
        got = batch.matmul_dense(right)
        want = batch.to_scipy() @ right
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    def test_shape_mismatch_raises(self):
        batch = self._batch(np.float64, np.int32)
        with pytest.raises(ShapeError):
            sparse_dense_product(batch, np.ones((batch.shape[1] + 1, 2)))
        with pytest.raises(ShapeError):
            sparse_dense_product(batch, np.ones((batch.shape[1], 2)), transpose=True)


class TestKernelEquivalence:
    """Every *_csr kernel vs its dense oracle: values and grads ≤ 1e-6."""

    def _grads(self, loss, params):
        loss.backward()
        return [p.grad for p in params]

    def test_linear_csr(self):
        dense, csr = _sparse_counts(batch=8, vocab=31)
        w = RNG.normal(size=(5, 31))
        b = RNG.normal(size=5)
        wd, bd = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        ws, bs = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        ref = fused.linear(Tensor(dense), wd, bd).sum()
        out = fused.linear(csr, ws, bs).sum()  # dispatches to linear_csr
        np.testing.assert_allclose(out.data, ref.data, atol=TOL)
        for gs, gr in zip(self._grads(out, [ws, bs]), self._grads(ref, [wd, bd])):
            np.testing.assert_allclose(gs, gr, atol=TOL)

    def test_nll_from_probs_csr(self):
        dense, csr = _sparse_counts(batch=6, vocab=19)
        logits = RNG.normal(size=(6, 19))
        ld = Tensor(logits, requires_grad=True)
        ls = Tensor(logits, requires_grad=True)
        ref = fused.nll_from_probs(fused.softmax(ld, axis=1), dense)
        out = fused.nll_from_probs(fused.softmax(ls, axis=1), csr)
        np.testing.assert_allclose(out.data, ref.data, atol=TOL)
        ref.backward()
        out.backward()
        np.testing.assert_allclose(ls.grad, ld.grad, atol=TOL)

    def test_log_softmax_nll_csr(self):
        dense, csr = _sparse_counts(batch=6, vocab=19)
        logits = RNG.normal(size=(6, 19))
        ld = Tensor(logits, requires_grad=True)
        ls = Tensor(logits, requires_grad=True)
        ref = fused.log_softmax_nll(ld, dense)
        out = fused.log_softmax_nll(ls, csr)
        np.testing.assert_allclose(out.data, ref.data, atol=TOL)
        ref.backward()
        out.backward()
        np.testing.assert_allclose(ls.grad, ld.grad, atol=TOL)

    def test_nll_from_mixture_csr(self):
        dense, csr = _sparse_counts(batch=6, vocab=19)
        theta = RNG.random((6, 4))
        theta /= theta.sum(axis=1, keepdims=True)
        beta = RNG.random((4, 19))
        beta /= beta.sum(axis=1, keepdims=True)
        td, bd = Tensor(theta, requires_grad=True), Tensor(beta, requires_grad=True)
        ts, bs = Tensor(theta, requires_grad=True), Tensor(beta, requires_grad=True)
        ref = fused.nll_from_probs(td @ bd, dense)
        out = fused.nll_from_mixture_csr(ts, bs, csr)
        np.testing.assert_allclose(out.data, ref.data, atol=TOL)
        ref.backward()
        out.backward()
        np.testing.assert_allclose(ts.grad, td.grad, atol=TOL)
        np.testing.assert_allclose(bs.grad, bd.grad, atol=TOL)

    def test_float32_equivalence_within_bound(self):
        dense, csr = _sparse_counts(batch=8, vocab=31, dtype=np.float32)
        w = RNG.normal(size=(5, 31)).astype(np.float32)
        ref = fused.linear(Tensor(dense), Tensor(w)).sum()
        out = fused.linear(csr, Tensor(w)).sum()
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-5)

    def test_all_zero_bow_gives_zero_loss_and_grads(self):
        csr = CSRBatch.from_dense(np.zeros((4, 9)))
        logits = Tensor(RNG.normal(size=(4, 9)), requires_grad=True)
        probs = fused.softmax(logits, axis=1)
        loss = fused.nll_from_probs(probs, csr)
        assert float(loss.data) == 0.0
        loss.backward()
        np.testing.assert_array_equal(logits.grad, np.zeros((4, 9)))
        theta = Tensor(np.full((4, 3), 1 / 3), requires_grad=True)
        beta = Tensor(np.full((3, 9), 1 / 9), requires_grad=True)
        mix = fused.nll_from_mixture_csr(theta, beta, csr)
        assert float(mix.data) == 0.0
        mix.backward()
        np.testing.assert_array_equal(theta.grad, np.zeros((4, 3)))

    def test_gradchecks(self):
        dense, csr = _sparse_counts(batch=5, vocab=13)
        theta0 = RNG.random((5, 3)) + 0.1
        beta0 = RNG.random((3, 13)) + 0.1
        assert gradcheck(
            lambda w, b: fused.linear_csr(csr, w, b).sum(),
            [RNG.normal(size=(4, 13)), RNG.normal(size=4)],
        )
        assert gradcheck(
            lambda lg: fused.nll_from_probs_csr(fused.softmax(lg, axis=1), csr),
            [RNG.normal(size=(5, 13))],
        )
        assert gradcheck(
            lambda lg: fused.log_softmax_nll_csr(lg, csr),
            [RNG.normal(size=(5, 13))],
        )
        assert gradcheck(
            lambda t, b: fused.nll_from_mixture_csr(t, b, csr),
            [theta0, beta0],
        )

    def test_shape_mismatch_raises(self):
        _, csr = _sparse_counts(batch=5, vocab=13)
        with pytest.raises(ShapeError):
            fused.nll_from_probs_csr(Tensor(np.ones((5, 12))), csr)
        with pytest.raises(ShapeError):
            fused.nll_from_mixture_csr(
                Tensor(np.ones((5, 3))), Tensor(np.ones((3, 12))), csr
            )
        with pytest.raises(ShapeError):
            fused.nll_from_mixture_csr(
                Tensor(np.ones((5, 3))), Tensor(np.ones((4, 13))), csr
            )


class TestSparsePolicy:
    def test_default_policy(self):
        policy = get_sparse_policy()
        assert policy.enabled
        assert SPARSE_DENSITY_THRESHOLD == 0.25

    def test_use_sparse_edges(self):
        policy = SparsePolicy(enabled=True)
        assert policy.use_sparse(0.0)
        assert policy.use_sparse(0.2499)
        assert not policy.use_sparse(0.25)  # at the threshold → dense
        assert not policy.use_sparse(1.0)
        assert not SparsePolicy(enabled=False).use_sparse(0.0)

    def test_context_manager_restores(self):
        before = get_sparse_policy()
        with sparse_policy(enabled=False):
            assert not get_sparse_policy().enabled
            with sparse_policy():
                inner = get_sparse_policy()
                assert not inner.enabled  # inherits the outer override
        assert get_sparse_policy() == before

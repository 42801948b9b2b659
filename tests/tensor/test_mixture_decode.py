"""The two mixture decodes of ``fused.nll_from_mixture_csr`` vs the dense chain.

The dense chain ``nll_from_probs(theta @ beta, dense_bow)`` is the oracle.
At or above ``_GEMM_DECODE_DENSITY`` the kernel decodes through one
``theta @ beta`` GEMM and backpropagates through the same two products
``Tensor.__matmul__`` runs, so its gradients must be bitwise equal to the
oracle's; below it the gather decode must stay within 1e-6 and pass its
own finite-difference check.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, fused, gradcheck
from repro.tensor.sparse import CSRBatch

GEMM_DENSITY = fused._GEMM_DECODE_DENSITY


def mixture_batch(batch, topics, vocab, density, dtype, seed=0):
    """Dense counts, their CSR form, and simplex-row ``theta``/``beta``."""
    rng = np.random.default_rng(seed)
    dense = np.where(
        rng.random((batch, vocab)) < density,
        rng.integers(1, 5, size=(batch, vocab)),
        0,
    ).astype(dtype)
    theta = rng.random((batch, topics)).astype(dtype)
    theta /= theta.sum(axis=1, keepdims=True)
    beta = rng.random((topics, vocab)).astype(dtype)
    beta /= beta.sum(axis=1, keepdims=True)
    return dense, CSRBatch.from_dense(dense), theta, beta


def both_sides(theta, beta, dense, csr, grad_theta=True, grad_beta=True):
    """Run the dense chain and the fused kernel from equal leaves."""
    td = Tensor(theta, requires_grad=grad_theta)
    bd = Tensor(beta, requires_grad=grad_beta)
    ts = Tensor(theta, requires_grad=grad_theta)
    bs = Tensor(beta, requires_grad=grad_beta)
    ref = fused.nll_from_probs(td @ bd, dense)
    out = fused.nll_from_mixture_csr(ts, bs, csr)
    ref.backward()
    out.backward()
    return (ref, td, bd), (out, ts, bs)


@pytest.fixture
def decode_calls(monkeypatch):
    """Record which decode helper each kernel call runs."""
    calls = []
    for name in ("_mixture_nll_gemm", "_mixture_nll_gather"):
        helper = getattr(fused, name)

        def spy(*args, _helper=helper, _name=name):
            calls.append(_name)
            return _helper(*args)

        monkeypatch.setattr(fused, name, spy)
    return calls


GEMM_SHAPES = [
    pytest.param(200, 50, 504, 0.108, id="train-nyt-200x504"),
    pytest.param(200, 50, 594, 0.056, id="seeds-20ng-200x594"),
    pytest.param(200, 50, 100, 0.30, id="dense-200x100"),
    pytest.param(7, 3, 13, 0.4, id="odd-7x13"),
    pytest.param(33, 17, 61, 0.2, id="odd-33x61"),
    pytest.param(9, 1, 40, 0.25, id="one-topic"),
]


class TestGemmDecode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch,topics,vocab,density", GEMM_SHAPES)
    def test_gradients_bitwise_equal_and_loss_close(
        self, decode_calls, batch, topics, vocab, density, dtype
    ):
        dense, csr, theta, beta = mixture_batch(batch, topics, vocab, density, dtype)
        (ref, td, bd), (out, ts, bs) = both_sides(theta, beta, dense, csr)
        assert decode_calls == ["_mixture_nll_gemm"]
        assert out.data.dtype == ref.data.dtype == dtype
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-6)
        assert ts.grad.dtype == bs.grad.dtype == dtype
        assert np.array_equal(ts.grad, td.grad)
        assert np.array_equal(bs.grad, bd.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad_theta", [True, False], ids=["theta-only", "beta-only"])
    def test_one_sided_requires_grad(self, decode_calls, dtype, grad_theta):
        dense, csr, theta, beta = mixture_batch(200, 50, 504, 0.108, dtype, seed=3)
        (_, td, bd), (_, ts, bs) = both_sides(
            theta, beta, dense, csr, grad_theta=grad_theta, grad_beta=not grad_theta
        )
        assert decode_calls == ["_mixture_nll_gemm"]
        if grad_theta:
            assert bs.grad is None and bd.grad is None
            assert np.array_equal(ts.grad, td.grad)
        else:
            assert ts.grad is None and td.grad is None
            assert np.array_equal(bs.grad, bd.grad)


class TestGatherDecode:
    @pytest.mark.parametrize(
        "batch,topics,vocab,density",
        [(64, 20, 2000, 0.01), (200, 50, 5000, 0.005), (11, 3, 700, 0.02)],
    )
    def test_matches_dense_chain(self, decode_calls, batch, topics, vocab, density):
        dense, csr, theta, beta = mixture_batch(
            batch, topics, vocab, density, np.float64, seed=5
        )
        (ref, td, bd), (out, ts, bs) = both_sides(theta, beta, dense, csr)
        assert decode_calls == ["_mixture_nll_gather"]
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-6)
        np.testing.assert_allclose(ts.grad, td.grad, atol=1e-6)
        np.testing.assert_allclose(bs.grad, bd.grad, atol=1e-6)

    def test_gradcheck_below_the_constant(self, decode_calls):
        # Eight nonzeros in 5 x 120 cells: density 0.0133.
        dense = np.zeros((5, 120))
        dense[[0, 0, 1, 2, 2, 2, 4, 4], [3, 77, 10, 0, 51, 119, 64, 65]] = [
            2, 1, 3, 1, 1, 4, 2, 1
        ]
        csr = CSRBatch.from_dense(dense)
        assert csr.density < GEMM_DENSITY
        rng = np.random.default_rng(7)
        assert gradcheck(
            lambda t, b: fused.nll_from_mixture_csr(t, b, csr),
            [rng.random((5, 3)) + 0.1, rng.random((3, 120)) + 0.1],
        )
        assert set(decode_calls) == {"_mixture_nll_gather"}


class TestAllZeroBatch:
    @pytest.mark.parametrize("decode", ["_mixture_nll_gemm", "_mixture_nll_gather"])
    def test_zero_loss_and_zero_gradients(self, decode):
        csr = CSRBatch.from_dense(np.zeros((4, 9)))
        theta = Tensor(np.full((4, 3), 1 / 3), requires_grad=True)
        beta = Tensor(np.full((3, 9), 1 / 9), requires_grad=True)
        loss = getattr(fused, decode)(theta, beta, csr, 1e-12)
        assert float(loss.data) == 0.0
        loss.backward()
        np.testing.assert_array_equal(theta.grad, np.zeros((4, 3)))
        np.testing.assert_array_equal(beta.grad, np.zeros((3, 9)))

    def test_dispatches_to_the_gather_decode(self, decode_calls):
        csr = CSRBatch.from_dense(np.zeros((4, 9)))
        fused.nll_from_mixture_csr(np.full((4, 3), 1 / 3), np.full((3, 9), 1 / 9), csr)
        assert decode_calls == ["_mixture_nll_gather"]


class TestBranchChoice:
    @staticmethod
    def batch_with(nnz):
        """A 10 x 100 batch holding ``nnz`` unit counts."""
        dense = np.zeros(1000)
        dense[:nnz] = 1.0
        return CSRBatch.from_dense(dense.reshape(10, 100))

    def test_exactly_at_the_constant_takes_the_gemm_decode(self, decode_calls):
        csr = self.batch_with(round(GEMM_DENSITY * 1000))
        assert csr.density == GEMM_DENSITY
        fused.nll_from_mixture_csr(np.full((10, 2), 0.5), np.full((2, 100), 0.01), csr)
        assert decode_calls == ["_mixture_nll_gemm"]

    def test_just_below_the_constant_takes_the_gather_decode(self, decode_calls):
        csr = self.batch_with(round(GEMM_DENSITY * 1000) - 1)
        assert csr.density < GEMM_DENSITY
        fused.nll_from_mixture_csr(np.full((10, 2), 0.5), np.full((2, 100), 0.01), csr)
        assert decode_calls == ["_mixture_nll_gather"]

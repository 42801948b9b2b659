"""Fused kernels: gradcheck certification + fused-vs-composed equivalence.

Every kernel in :mod:`repro.tensor.fused` must (a) pass finite-difference
gradient verification in float64, including broadcast/edge shapes, and
(b) match its primitive-composed reference — outputs *and* gradients — to
1e-8 in float64 and 1e-4 in float32.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, default_dtype, fused, gradcheck
from repro.tensor import functional as F
from tests.tensor._composed_ops import (
    kl_normal_standard_composed,
    log_softmax_composed,
    logsumexp_composed,
    sigmoid_composed,
    softmax_composed,
)

RNG = np.random.default_rng(7)


def _rand(*shape):
    return RNG.normal(size=shape)


def _counts(*shape):
    """Bag-of-words-like constant counts (some zeros, like real documents)."""
    return RNG.integers(0, 4, size=shape).astype(float)


class TestGradcheck:
    """Finite-difference certification (pinned to float64 by gradcheck)."""

    def test_linear(self):
        assert gradcheck(
            lambda x, w, b: fused.linear(x, w, b).sum(),
            [_rand(5, 4), _rand(3, 4), _rand(3)],
        )

    def test_linear_no_bias(self):
        assert gradcheck(
            lambda x, w: fused.linear(x, w).sum(), [_rand(5, 4), _rand(3, 4)]
        )

    def test_linear_batched_input(self):
        # leading batch dimensions flatten into the dW/db reductions
        assert gradcheck(
            lambda x, w, b: fused.linear(x, w, b).sum(),
            [_rand(2, 3, 4), _rand(5, 4), _rand(5)],
        )

    def test_linear_single_row(self):
        assert gradcheck(
            lambda x, w, b: fused.linear(x, w, b).sum(),
            [_rand(1, 4), _rand(1, 4), _rand(1)],
        )

    @pytest.mark.parametrize("axis", [-1, 0, 1])
    def test_softmax(self, axis):
        # weigh the rows so the check does not hide gradient errors behind
        # the constant row-sum of a softmax (the constant must be hoisted
        # out of the lambda: gradcheck re-evaluates it many times)
        weigher = _rand(3, 5)
        assert gradcheck(
            lambda x: (fused.softmax(x, axis=axis) * Tensor(weigher)).sum(),
            [_rand(3, 5)],
        )

    def test_softmax_1d(self):
        weigher = _rand(6)
        assert gradcheck(
            lambda x: (fused.softmax(x, axis=-1) * Tensor(weigher)).sum(),
            [_rand(6)],
        )

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_log_softmax(self, axis):
        weigher = _rand(4, 6)
        assert gradcheck(
            lambda x: (fused.log_softmax(x, axis=axis) * Tensor(weigher)).sum(),
            [_rand(4, 6)],
        )

    @pytest.mark.parametrize("axis,keepdims", [(-1, False), (0, False), (1, True)])
    def test_logsumexp(self, axis, keepdims):
        assert gradcheck(
            lambda x: fused.logsumexp(x, axis=axis, keepdims=keepdims).sum(),
            [_rand(3, 4)],
        )

    def test_logsumexp_1d(self):
        assert gradcheck(lambda x: fused.logsumexp(x, axis=0), [_rand(5)])

    def test_sigmoid(self):
        assert gradcheck(lambda x: fused.sigmoid(x).sum(), [_rand(3, 4)])

    def test_softplus(self):
        assert gradcheck(lambda x: fused.softplus(x).sum(), [_rand(3, 4) * 3.0])

    def test_nll_from_probs(self):
        bow = _counts(4, 6)
        probs = np.abs(_rand(4, 6)) + 0.1
        assert gradcheck(lambda p: fused.nll_from_probs(p, bow), [probs])

    def test_log_softmax_nll(self):
        bow = _counts(4, 6)
        assert gradcheck(lambda z: fused.log_softmax_nll(z, bow), [_rand(4, 6)])

    def test_kl_normal_standard(self):
        assert gradcheck(
            lambda m, lv: fused.kl_normal_standard(m, lv),
            [_rand(4, 3), _rand(4, 3) * 0.5],
        )

    def test_batch_norm_training_affine(self):
        weigher = Tensor(_rand(3))  # break the symmetry sum() would hide

        def f(x, w, b):
            return (
                fused.batch_norm(x, weight=w, bias=b, training=True) * weigher
            ).sum()

        assert gradcheck(f, [_rand(6, 3), _rand(3) + 2.0, _rand(3)])

    def test_batch_norm_training_no_affine(self):
        weigher = Tensor(_rand(4, 3))  # hoisted: see test_softmax
        assert gradcheck(
            lambda x: (fused.batch_norm(x, training=True) * weigher).sum(),
            [_rand(4, 3)],
        )

    def test_batch_norm_eval(self):
        rm, rv = _rand(3), np.abs(_rand(3)) + 0.5

        def f(x, w, b):
            return fused.batch_norm(
                x,
                running_mean=rm,
                running_var=rv,
                weight=w,
                bias=b,
                training=False,
            ).sum()

        assert gradcheck(f, [_rand(5, 3), _rand(3), _rand(3)])


def _compare(fused_fn, composed_fn, arrays, dtype, tol, constants=()):
    """Run fused and composed on identical inputs; compare value + grads."""
    with default_dtype(dtype):
        fused_in = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        composed_in = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        out_f = fused_fn(*fused_in, *constants)
        out_c = composed_fn(*composed_in, *constants)
        assert out_f.data.dtype == np.dtype(dtype)
        np.testing.assert_allclose(out_f.data, out_c.data, rtol=tol, atol=tol)
        seed = np.ones(out_f.shape, dtype=dtype)
        out_f.backward(seed)
        out_c.backward(seed.copy())
        for tf, tc in zip(fused_in, composed_in):
            assert tf.grad.dtype == np.dtype(dtype)
            np.testing.assert_allclose(tf.grad, tc.grad, rtol=tol, atol=tol)


@pytest.mark.parametrize(
    "dtype,tol", [("float64", 1e-8), ("float32", 1e-4)], ids=["f64", "f32"]
)
class TestFusedMatchesComposed:
    """The fused kernels are drop-in replacements, in both precisions."""

    def test_softmax(self, dtype, tol):
        _compare(
            lambda x: fused.softmax(x, axis=1),
            lambda x: softmax_composed(x, axis=1),
            [_rand(5, 7)],
            dtype,
            tol,
        )

    def test_log_softmax(self, dtype, tol):
        _compare(
            lambda x: fused.log_softmax(x, axis=-1),
            lambda x: log_softmax_composed(x, axis=-1),
            [_rand(4, 9)],
            dtype,
            tol,
        )

    def test_logsumexp(self, dtype, tol):
        _compare(
            lambda x: fused.logsumexp(x, axis=0),
            lambda x: logsumexp_composed(x, axis=0),
            [_rand(6, 3)],
            dtype,
            tol,
        )

    def test_sigmoid(self, dtype, tol):
        _compare(fused.sigmoid, sigmoid_composed, [_rand(4, 5)], dtype, tol)

    def test_softplus(self, dtype, tol):
        _compare(
            fused.softplus,
            lambda x: (x.exp() + 1.0).log(),
            [_rand(4, 5)],
            dtype,
            tol,
        )

    def test_linear(self, dtype, tol):
        _compare(
            lambda x, w, b: fused.linear(x, w, b),
            lambda x, w, b: x @ w.T + b,
            [_rand(6, 4), _rand(3, 4), _rand(3)],
            dtype,
            tol,
        )

    def test_nll_from_probs(self, dtype, tol):
        bow = _counts(5, 8)
        _compare(
            lambda p: fused.nll_from_probs(p, bow),
            lambda p: F.cross_entropy_with_probs((p + 1e-12).log(), bow),
            [np.abs(_rand(5, 8)) + 0.1],
            dtype,
            tol,
        )

    def test_log_softmax_nll(self, dtype, tol):
        bow = _counts(5, 8)
        _compare(
            lambda z: fused.log_softmax_nll(z, bow),
            lambda z: F.cross_entropy_with_probs(log_softmax_composed(z, axis=1), bow),
            [_rand(5, 8)],
            dtype,
            tol,
        )

    def test_kl_normal_standard(self, dtype, tol):
        _compare(
            fused.kl_normal_standard,
            kl_normal_standard_composed,
            [_rand(6, 4), _rand(6, 4) * 0.3],
            dtype,
            tol,
        )

    def test_batch_norm_training(self, dtype, tol):
        eps = 1e-5

        def composed(x, w, b):
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=0, keepdims=True)
            return centered / (var + eps).sqrt() * w + b

        _compare(
            lambda x, w, b: fused.batch_norm(x, weight=w, bias=b, training=True),
            composed,
            [_rand(8, 5), _rand(5) + 2.0, _rand(5)],
            dtype,
            tol,
        )

    def test_batch_norm_eval(self, dtype, tol):
        eps = 1e-5
        rm = _rand(5).astype(dtype)
        rv = (np.abs(_rand(5)) + 0.5).astype(dtype)

        def composed(x, w, b):
            inv = Tensor((1.0 / np.sqrt(rv + eps)).astype(dtype))
            return (x - Tensor(rm)) * inv * w + b

        _compare(
            lambda x, w, b: fused.batch_norm(
                x,
                running_mean=rm.copy(),
                running_var=rv.copy(),
                weight=w,
                bias=b,
                training=False,
            ),
            composed,
            [_rand(6, 5), _rand(5), _rand(5)],
            dtype,
            tol,
        )


class TestBatchNormSemantics:
    def test_running_stats_updated_in_place(self):
        x = _rand(10, 4)
        rm = np.zeros(4)
        rv = np.ones(4)
        fused.batch_norm(
            Tensor(x), running_mean=rm, running_var=rv, training=True, momentum=0.1
        )
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        np.testing.assert_allclose(rm, 0.1 * mean)
        # EMA uses the unbiased variance (n / (n - 1)), torch semantics
        np.testing.assert_allclose(rv, 0.9 + 0.1 * var * 10 / 9)

    def test_eval_requires_running_stats(self):
        with pytest.raises(ShapeError):
            fused.batch_norm(Tensor(_rand(3, 2)), training=False)

    def test_eval_does_not_touch_running_stats(self):
        rm, rv = np.zeros(3), np.ones(3)
        fused.batch_norm(
            Tensor(_rand(4, 3)), running_mean=rm, running_var=rv, training=False
        )
        np.testing.assert_array_equal(rm, np.zeros(3))
        np.testing.assert_array_equal(rv, np.ones(3))


class TestShapeValidation:
    def test_linear_rejects_1d_input(self):
        with pytest.raises(ShapeError):
            fused.linear(Tensor(_rand(4)), Tensor(_rand(3, 4)))

    def test_linear_rejects_mismatched_features(self):
        with pytest.raises(ShapeError):
            fused.linear(Tensor(_rand(2, 5)), Tensor(_rand(3, 4)))

    def test_nll_from_probs_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            fused.nll_from_probs(Tensor(_rand(4)), _counts(4))

    def test_log_softmax_nll_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            fused.log_softmax_nll(Tensor(_rand(2, 3, 4)), _counts(2, 3, 4))

    def test_kl_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            fused.kl_normal_standard(Tensor(_rand(4, 3)), Tensor(_rand(4, 2)))

    def test_batch_norm_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            fused.batch_norm(Tensor(_rand(3, 4, 5)))


class TestFunctionalAliases:
    """The public functional names *are* the fused kernels (no drift)."""

    def test_hot_path_names_are_fused(self):
        assert F.softmax is fused.softmax
        assert F.log_softmax is fused.log_softmax
        assert F.logsumexp is fused.logsumexp
        assert F.sigmoid is fused.sigmoid
        assert F.softplus is fused.softplus
        assert F.kl_normal_standard is fused.kl_normal_standard

    def test_single_graph_node(self):
        """A fused call has no intermediate parents: one node, direct edge."""
        x = Tensor(_rand(3, 4), requires_grad=True)
        out = fused.log_softmax(x, axis=1)
        assert out._parents == (x,)

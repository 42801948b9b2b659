"""Forward maths of the encoder's ops on plain numpy arrays.

Each function here is the one definition of an op's forward values.  The
autodiff ops (:mod:`repro.tensor.fused`, :mod:`repro.tensor.functional`)
call it and wrap the result in a graph node with its backward; the
eval-mode encoder forward behind ``transform``
(:meth:`repro.models.base.VaeEncoder.infer_theta`) calls it directly, with
no :class:`~repro.tensor.tensor.Tensor` and no tape.  Both paths therefore
produce the same bits for the same inputs, and no formula is written
twice.

Dtype: results take the dtype numpy's promotion gives the operands;
scalar constants are Python floats, which never upcast a float32 array.
Every function returns a fresh array and, except for
:func:`batch_norm_affine`'s documented in-place scale, never writes to
its inputs.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.sparse import CSRBatch

_SELU_ALPHA = 1.6732632423543772
_SELU_SCALE = 1.0507009873554805
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_CUBIC = 0.044715


# ----------------------------------------------------------------------
# affine
# ----------------------------------------------------------------------
def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """``x @ weight.T + bias`` for a ``(out, in)`` weight."""
    out = x @ weight.T
    if bias is not None:
        out += bias  # fresh array: safe to add in place
    return out


def linear_csr(
    x: CSRBatch, weight_t: np.ndarray, bias: np.ndarray | None
) -> np.ndarray:
    """``x @ weight_t + bias`` for CSR counts and a C-contiguous ``(in, out)``
    transposed weight, through scipy's CSR×dense kernel.

    The counts are cast to the weight's dtype first (O(nnz)).
    """
    out = x.astype(weight_t.dtype).matmul_dense(weight_t)
    if bias is not None:
        out += bias
    return out


# ----------------------------------------------------------------------
# element-wise activations
# ----------------------------------------------------------------------
def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def leaky_relu(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    return np.where(x > 0.0, x, negative_slope * x)


def selu(x: np.ndarray) -> np.ndarray:
    """Scaled exponential linear unit (the paper's encoder activation)."""
    return _SELU_SCALE * np.where(
        x > 0.0, x, _SELU_ALPHA * (np.exp(np.minimum(x, 0.0)) - 1.0)
    )


def selu_derivative(x: np.ndarray) -> np.ndarray:
    """``d selu / dx`` at ``x`` (the backward's local slope)."""
    return _SELU_SCALE * np.where(
        x > 0.0, 1.0, _SELU_ALPHA * np.exp(np.minimum(x, 0.0))
    )


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in tanh form (robust for large ``|x|``)."""
    out = np.tanh(x * 0.5)
    out += 1.0
    out *= 0.5
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` computed stably for large ``|x|``."""
    return np.logaddexp(0.0, x)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    inner = (x + x * x * x * _GELU_CUBIC) * _GELU_C
    return x * 0.5 * (np.tanh(inner) + 1.0)


def gelu_derivative(x: np.ndarray) -> np.ndarray:
    """``d gelu / dx`` at ``x`` (the backward's local slope)."""
    t = np.tanh((x + x * x * x * _GELU_CUBIC) * _GELU_C)
    dinner = (1.0 + 3.0 * _GELU_CUBIC * x * x) * _GELU_C
    return 0.5 * (t + 1.0) + 0.5 * x * (1.0 - t * t) * dinner


# ----------------------------------------------------------------------
# normalisation
# ----------------------------------------------------------------------
def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax along ``axis``."""
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def batch_norm_affine(
    centered: np.ndarray,
    var: np.ndarray,
    weight: np.ndarray | None,
    bias: np.ndarray | None,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale mean-centred inputs by ``1/sqrt(var + eps)``, then the affine.

    Returns ``(out, xhat, inv_std)``; the batch-norm backward reuses the
    last two.  ``centered`` must be a fresh array: it becomes ``xhat``.
    """
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered
    xhat *= inv_std
    out = xhat * weight if weight is not None else xhat.copy()
    if bias is not None:
        out += bias
    return out, xhat, inv_std


def batch_norm_eval(
    x: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    weight: np.ndarray | None,
    bias: np.ndarray | None,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eval-mode batch norm by the running statistics, cast to ``x``'s dtype.

    Returns ``(out, xhat, inv_std)`` like :func:`batch_norm_affine`.
    """
    dtype = x.dtype
    centered = x - running_mean.astype(dtype, copy=False)
    return batch_norm_affine(
        centered, running_var.astype(dtype, copy=False), weight, bias, eps
    )

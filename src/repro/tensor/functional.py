"""Differentiable functional building blocks on top of :class:`Tensor`.

These are the composite operations shared by every model in the library:
numerically-stable softmax / log-softmax / logsumexp, the common activation
functions, and the closed-form loss terms used by VAE-style topic models
(reconstruction cross-entropy against a bag-of-words, and the KL divergence
between a diagonal Gaussian and the standard normal).

The hot-path entries (``softmax``, ``log_softmax``, ``logsumexp``,
``sigmoid``, ``softplus``, ``kl_normal_standard``) are aliases of the
single-node kernels in :mod:`repro.tensor.fused`.  Their multi-node
reference builds live with the tests that hold the kernels to them
(``tests/tensor/_composed_ops.py``).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import fused, kernels
from repro.tensor.tensor import Tensor, as_tensor

#: Composite functional ops eligible for op-level profiling (see
#: :func:`repro.telemetry.ophooks.profile_ops`).  Profiling a composite
#: also profiles the primitive Tensor ops it is built from, so op tables
#: show both the composite's total and its constituents.
PROFILED_FUNCTIONAL_OPS: tuple[str, ...] = (
    "logsumexp",
    "softmax",
    "log_softmax",
    "sigmoid",
    "tanh",
    "relu",
    "leaky_relu",
    "selu",
    "softplus",
    "gelu",
    "cross_entropy_with_probs",
    "kl_normal_standard",
    "mse",
)


#: Hot-path functional ops are the fused single-node kernels.
logsumexp = fused.logsumexp
softmax = fused.softmax
log_softmax = fused.log_softmax
sigmoid = fused.sigmoid


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data**2))

    return Tensor._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = kernels.relu(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0.0))

    return Tensor._make(out_data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    x = as_tensor(x)
    out_data = kernels.leaky_relu(x.data, negative_slope)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            slope = np.where(x.data > 0.0, 1.0, negative_slope)
            x._accumulate(grad * slope)

    return Tensor._make(out_data, (x,), backward)


def selu(x: Tensor) -> Tensor:
    """Scaled exponential linear unit (the paper's encoder activation)."""
    x = as_tensor(x)
    out_data = kernels.selu(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * kernels.selu_derivative(x.data))

    return Tensor._make(out_data, (x,), backward)


softplus = fused.softplus


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation), one node."""
    x = as_tensor(x)
    out_data = kernels.gelu(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * kernels.gelu_derivative(x.data))

    return Tensor._make(out_data, (x,), backward)


def cross_entropy_with_probs(
    log_word_probs: Tensor, bow: np.ndarray | Tensor
) -> Tensor:
    """Negative log-likelihood of bag-of-words counts under word log-probs.

    Parameters
    ----------
    log_word_probs:
        ``(batch, vocab)`` log-probabilities (rows of ``log(theta @ beta)``).
    bow:
        ``(batch, vocab)`` observed word counts (not differentiated).

    Returns
    -------
    Scalar tensor: mean over the batch of ``-sum_v bow[d, v] * log p[d, v]``.
    """
    counts = bow.data if isinstance(bow, Tensor) else np.asarray(bow)
    counts_t = Tensor(counts.astype(log_word_probs.data.dtype, copy=False))
    per_doc = -(log_word_probs * counts_t).sum(axis=1)
    return per_doc.mean()


kl_normal_standard = fused.kl_normal_standard


def mse(prediction: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error against a constant (non-differentiated) target."""
    target_data = target.data if isinstance(target, Tensor) else np.asarray(target)
    diff = prediction - Tensor(target_data.astype(prediction.data.dtype, copy=False))
    return (diff * diff).mean()

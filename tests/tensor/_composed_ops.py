"""The functional ops composed from primitive autodiff nodes.

Executable specifications of the single-node kernels in
:mod:`repro.tensor.fused` that the public ``F.*`` names alias:
``tests/tensor/test_fused.py`` holds each kernel's output and gradient
to these (1e-8 in float64, 1e-4 in float32).
"""

from repro.tensor.functional import tanh
from repro.tensor.tensor import Tensor, as_tensor


def logsumexp_composed(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Primitive-composed ``log(sum(exp(x)))`` (reference for the fused op)."""
    x = as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))  # constant, no grad
    out = ((x - shift).exp().sum(axis=axis, keepdims=True)).log() + shift
    if not keepdims:
        out = out.squeeze(axis if axis >= 0 else x.ndim + axis)
    return out


def softmax_composed(x: Tensor, axis: int = -1) -> Tensor:
    """Primitive-composed max-shifted softmax (reference for the fused op)."""
    x = as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_composed(x: Tensor, axis: int = -1) -> Tensor:
    """Primitive-composed log-softmax (reference for the fused op)."""
    x = as_tensor(x)
    return x - logsumexp_composed(x, axis=axis, keepdims=True)


def sigmoid_composed(x: Tensor) -> Tensor:
    """Primitive-composed tanh-form sigmoid (reference for the fused op)."""
    x = as_tensor(x)
    return (tanh(x * 0.5) + 1.0) * 0.5


def kl_normal_standard_composed(mu: Tensor, logvar: Tensor) -> Tensor:
    """Primitive-composed KL( N(mu, exp(logvar)) || N(0, I) ) mean.

    Uses the closed form ``0.5 * sum(exp(logvar) + mu^2 - 1 - logvar)``;
    reference for :func:`repro.tensor.fused.kl_normal_standard`.
    """
    per_doc = ((logvar.exp() + mu * mu - 1.0 - logvar) * 0.5).sum(axis=1)
    return per_doc.mean()

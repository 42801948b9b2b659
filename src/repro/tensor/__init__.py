"""A small reverse-mode automatic-differentiation engine over numpy.

This package is the stand-in for PyTorch's autograd in this reproduction
(the execution environment provides no deep-learning framework).  It offers
a :class:`Tensor` type supporting broadcasting arithmetic, matrix products,
reductions, indexing and the transcendental functions needed by the neural
topic models in :mod:`repro.models`, together with functional helpers
(softmax, log-softmax, KL terms), fused single-node kernels for the
training hot path (:mod:`repro.tensor.fused`), a configurable default
dtype (:mod:`repro.tensor.dtypes`: float64 by default, float32 opt-in via
``REPRO_DTYPE`` / :func:`set_default_dtype`), a sparse bag-of-words fast
path (:class:`~repro.tensor.sparse.CSRBatch` constants plus a
:class:`~repro.tensor.dtypes.SparsePolicy` auto-dispatch switched by
``REPRO_SPARSE``; data at or above the measured density
:data:`~repro.tensor.dtypes.SPARSE_DENSITY_THRESHOLD` stays dense), and a
finite-difference gradient checker used by the test-suite to certify
every operator's gradient.
"""

from repro.tensor.dtypes import (
    SPARSE_DENSITY_THRESHOLD,
    SUPPORTED_DTYPES,
    SparsePolicy,
    default_dtype,
    get_default_dtype,
    get_sparse_policy,
    resolve_dtype,
    set_default_dtype,
    set_sparse_policy,
    sparse_policy,
)
from repro.tensor.sparse import CSRBatch
from repro.tensor.tensor import (
    PROFILED_MODULE_OPS,
    PROFILED_TENSOR_OPS,
    Tensor,
    as_tensor,
    is_grad_enabled,
    no_grad,
)
from repro.tensor import fused
from repro.tensor.fused import PROFILED_FUSED_OPS
from repro.tensor import functional
from repro.tensor.functional import (
    softmax,
    log_softmax,
    logsumexp,
    sigmoid,
    tanh,
    relu,
    selu,
    softplus,
    cross_entropy_with_probs,
    kl_normal_standard,
    mse,
)
from repro.tensor.gradcheck import gradcheck, numerical_gradient

__all__ = [
    "CSRBatch",
    "PROFILED_FUSED_OPS",
    "PROFILED_MODULE_OPS",
    "PROFILED_TENSOR_OPS",
    "SPARSE_DENSITY_THRESHOLD",
    "SUPPORTED_DTYPES",
    "SparsePolicy",
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "default_dtype",
    "get_default_dtype",
    "get_sparse_policy",
    "resolve_dtype",
    "set_default_dtype",
    "set_sparse_policy",
    "sparse_policy",
    "fused",
    "functional",
    "softmax",
    "log_softmax",
    "logsumexp",
    "sigmoid",
    "tanh",
    "relu",
    "selu",
    "softplus",
    "cross_entropy_with_probs",
    "kl_normal_standard",
    "mse",
    "gradcheck",
    "numerical_gradient",
]

"""Fused autodiff kernels: one graph node where the composed ops used many.

Every function here is semantically identical to a chain of primitive
:class:`~repro.tensor.tensor.Tensor` operations (the reference compositions
live in ``tests/tensor/_composed_ops.py``), but runs the
whole forward in numpy without intermediate graph nodes and backpropagates
through a single hand-derived closure.  A composed ``softmax`` builds five
nodes (max-shift constant, ``sub``, ``exp``, ``sum``, ``div``), five output
temporaries and five Python closures per call; the fused one builds one node
and reuses its forward buffers in the backward.  On the training hot path —
the encoder's ``linear`` stack, the ELBO's log-softmax/NLL, the O(K·V²)
contrastive step — this removes most of the Python-per-op overhead and
roughly halves transient allocations.

Dtype: all kernels compute in the dtype of their tensor inputs (see
:mod:`repro.tensor.dtypes`); constant operands (bag-of-words counts,
running statistics) are cast to match so float32 graphs stay float32.
Scalar hyper-parameters are kept as Python floats, which numpy's promotion
rules treat as weak — they never upcast a float32 array.

Sparse fast path: the bag-of-words-facing kernels (``linear``,
``nll_from_probs``, ``log_softmax_nll``) each have a ``*_csr`` twin that
accepts a :class:`~repro.tensor.sparse.CSRBatch` operand and touches only
its nonzeros — O(nnz·H) instead of O(B·V·H) for the encoder affine,
O(nnz) instead of O(B·V) for the NLL log/scatter.  The dense-named
entrypoints auto-dispatch on operand type, so call sites (``nn.Linear``,
the models' reconstruction losses) pick the sparse path for free whenever
the data layer hands them a CSR batch.  The CSR operand is always a
*constant* (counts are inputs, never parameters); only the dense tensor
operands are differentiated.

Profiling: :data:`PROFILED_FUSED_OPS` names the kernels that
:func:`repro.telemetry.ophooks.profile_ops` wraps while active, so fused
calls appear as single rows of the per-op report.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensor import kernels
from repro.tensor.sparse import CSRBatch, transpose_contiguous
from repro.tensor.tensor import Tensor, as_tensor

#: Fused kernels eligible for op-level profiling (see
#: :func:`repro.telemetry.ophooks.profile_ops`).  Each call is one graph
#: node, so its row in the ops table covers what would otherwise be spread
#: over 4-10 primitive rows.
PROFILED_FUSED_OPS: tuple[str, ...] = (
    "linear",
    "linear_csr",
    "softmax",
    "log_softmax",
    "logsumexp",
    "sigmoid",
    "softplus",
    "nll_from_probs",
    "nll_from_probs_csr",
    "nll_from_mixture_csr",
    "log_softmax_nll",
    "log_softmax_nll_csr",
    "kl_normal_standard",
    "batch_norm",
)


def _constant(value, dtype: np.dtype) -> np.ndarray:
    """Materialise a non-differentiated operand in the graph's dtype."""
    data = value.data if isinstance(value, Tensor) else np.asarray(value)
    return data.astype(dtype, copy=False)


# ----------------------------------------------------------------------
# affine
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused affine map ``x @ weight.T + bias`` as a single node.

    Replaces the ``transpose`` / ``matmul`` / ``add`` triple built by the
    composed path.  ``x`` may have any number of leading batch dimensions;
    ``weight`` is ``(out_features, in_features)``.

    A :class:`~repro.tensor.sparse.CSRBatch` input dispatches to
    :func:`linear_csr` (the sparse fast path; ``x`` becomes a constant).
    """
    if isinstance(x, CSRBatch):
        return linear_csr(x, weight, bias)
    x = as_tensor(x)
    weight = as_tensor(weight)
    if x.ndim < 2 or weight.ndim != 2:
        raise ShapeError(
            f"linear expects x of ndim >= 2 and a 2-D weight, got "
            f"{x.shape} @ {weight.shape}"
        )
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear shape mismatch: x {x.shape} vs weight {weight.shape}"
        )
    out_data = kernels.linear(x.data, weight.data, None if bias is None else bias.data)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data)
        if weight.requires_grad or (bias is not None and bias.requires_grad):
            g2 = grad.reshape(-1, weight.data.shape[0])
            if weight.requires_grad:
                x2 = x.data.reshape(-1, weight.data.shape[1])
                weight._accumulate(g2.T @ x2)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g2.sum(axis=0))

    return Tensor._make(out_data, parents, backward)


def linear_csr(
    x: CSRBatch, weight: Tensor, bias: Tensor | None = None
) -> Tensor:
    """Sparse×dense fused affine map ``x @ weight.T + bias``, one node.

    ``x`` is a constant :class:`~repro.tensor.sparse.CSRBatch` of
    bag-of-words counts; only ``weight``/``bias`` are differentiated.  The
    forward runs scipy's C CSR·dense kernel — O(nnz·out_features) instead
    of the dense O(batch·in_features·out_features) — and the backward
    computes ``dW = (x.T @ g).T`` through the same sparse kernel, again
    touching only nonzeros.
    """
    if not isinstance(x, CSRBatch):
        raise ShapeError(
            f"linear_csr expects a CSRBatch input, got {type(x).__name__}"
        )
    weight = as_tensor(weight)
    if weight.ndim != 2:
        raise ShapeError(
            f"linear_csr expects a 2-D weight, got {weight.shape}"
        )
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"linear_csr shape mismatch: x {x.shape} vs weight {weight.shape}"
        )
    counts = x.astype(weight.data.dtype)
    out_data = kernels.linear_csr(
        counts,
        transpose_contiguous(weight.data),
        None if bias is None else bias.data,
    )

    parents = (weight,) if bias is None else (weight, bias)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            # ``X.T @ g`` comes out (in, out); the blocked transpose copy
            # delivers the (out, in) layout the parameter expects without
            # the cache-hostile strided accumulate.
            weight._accumulate(
                transpose_contiguous(counts.t_matmul_dense(grad))
            )
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))

    return Tensor._make(out_data, parents, backward)


# ----------------------------------------------------------------------
# normalised exponentials
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Fused max-shifted softmax: one node instead of five."""
    x = as_tensor(x)
    out_data = kernels.softmax(x.data, axis=axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate((grad - inner) * out_data)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Fused log-softmax (``x - logsumexp(x)``) as a single node."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=axis, keepdims=True)
    out_data = shifted - np.log(sums)
    probs = exps
    probs /= sums  # softmax, reused by the backward

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad - probs * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Fused numerically-stable ``log(sum(exp(x)))`` along ``axis``."""
    x = as_tensor(x)
    norm_axis = axis if axis >= 0 else x.ndim + axis
    shift = x.data.max(axis=axis, keepdims=True)
    exps = np.exp(x.data - shift)
    sums = exps.sum(axis=axis, keepdims=True)
    out_data = np.log(sums) + shift
    if not keepdims:
        out_data = np.squeeze(out_data, axis=norm_axis)
    probs = exps
    probs /= sums

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = grad if keepdims else np.expand_dims(grad, norm_axis)
            x._accumulate(g * probs)

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# element-wise activations
# ----------------------------------------------------------------------
def sigmoid(x: Tensor) -> Tensor:
    """Fused logistic sigmoid (tanh-form for numerical robustness)."""
    x = as_tensor(x)
    out_data = kernels.sigmoid(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """``log(1 + exp(x))`` computed stably for large ``|x|``."""
    x = as_tensor(x)
    out_data = kernels.softplus(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # d/dx softplus = sigmoid(x)
            x._accumulate(grad * (0.5 * (np.tanh(0.5 * x.data) + 1.0)))

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# fused ELBO terms
# ----------------------------------------------------------------------
def nll_from_probs(
    word_probs: Tensor, bow, eps: float = 1e-12
) -> Tensor:
    """Reconstruction NLL straight from word probabilities, in one node.

    Computes ``mean_d( -sum_v bow[d,v] * log(p[d,v] + eps) )`` — the
    ``(p + eps).log()`` / ``mul`` / ``sum`` / ``neg`` / ``mean`` chain used
    by the mixture-form models (ETM-style ``theta @ beta`` decoders) — with
    a single analytic backward ``dp = -(g/B) * bow / (p + eps)``.
    ``bow`` is a constant (not differentiated).

    A :class:`~repro.tensor.sparse.CSRBatch` ``bow`` dispatches to
    :func:`nll_from_probs_csr`, which reads/logs/scatters only at the
    nonzero count positions.
    """
    if isinstance(bow, CSRBatch):
        return nll_from_probs_csr(word_probs, bow, eps=eps)
    word_probs = as_tensor(word_probs)
    if word_probs.ndim != 2:
        raise ShapeError(
            f"nll_from_probs expects (batch, vocab) probabilities, got "
            f"{word_probs.shape}"
        )
    counts = _constant(bow, word_probs.data.dtype)
    denom = word_probs.data + eps
    per_doc = -np.einsum("dv,dv->d", counts, np.log(denom))
    out_data = np.asarray(per_doc.mean())
    batch = word_probs.shape[0]

    def backward(grad: np.ndarray) -> None:
        if word_probs.requires_grad:
            scale = -float(grad) / batch
            word_probs._accumulate(scale * counts / denom)

    return Tensor._make(out_data, (word_probs,), backward)


def nll_from_probs_csr(
    word_probs: Tensor, bow: CSRBatch, eps: float = 1e-12
) -> Tensor:
    """Sparse-counts reconstruction NLL: log/scatter only at nonzeros.

    Mathematically identical to :func:`nll_from_probs` — every zero count
    contributes exactly ``0 * log(p + eps) = 0`` to the dense sum — but the
    forward gathers and logs only the ``nnz`` probabilities actually paired
    with a count, and the backward scatters ``-(g/B) * bow / (p + eps)``
    into a zero gradient at those positions.  O(nnz) work where the dense
    kernel pays O(batch·vocab).
    """
    if not isinstance(bow, CSRBatch):
        raise ShapeError(
            f"nll_from_probs_csr expects a CSRBatch bow, got "
            f"{type(bow).__name__}"
        )
    word_probs = as_tensor(word_probs)
    if word_probs.ndim != 2:
        raise ShapeError(
            f"nll_from_probs_csr expects (batch, vocab) probabilities, got "
            f"{word_probs.shape}"
        )
    if bow.shape != word_probs.shape:
        raise ShapeError(
            f"nll_from_probs_csr shape mismatch: probs {word_probs.shape} "
            f"vs bow {bow.shape}"
        )
    dtype = word_probs.data.dtype
    counts = bow.data.astype(dtype, copy=False)
    rows = bow.row_ids()
    cols = bow.indices
    denom_nz = word_probs.data[rows, cols] + eps
    batch = word_probs.shape[0]
    total = -float(counts @ np.log(denom_nz)) if bow.nnz else 0.0
    out_data = np.asarray(total / max(batch, 1), dtype=dtype)

    def backward(grad: np.ndarray) -> None:
        if word_probs.requires_grad:
            scale = -float(grad) / batch
            gp = np.zeros_like(word_probs.data)
            # Canonical CSR: (row, col) pairs are unique, plain assignment.
            gp[rows, cols] = scale * counts / denom_nz
            word_probs._accumulate(gp)

    return Tensor._make(out_data, (word_probs,), backward)


#: Batch density (``bow.density``) at and above which
#: :func:`nll_from_mixture_csr` decodes through one dense ``theta @ beta``
#: GEMM instead of per-nonzero gathers.  Measured crossover, not a knob:
#: both costs scale with batch and topics, so the density alone decides
#: (table in docs/PERFORMANCE.md §Sparse fast path).  Independent of the
#: sparse policy's threshold, which decides the batch *format*.
_GEMM_DECODE_DENSITY = 0.03


def nll_from_mixture_csr(
    theta: Tensor, beta: Tensor, bow: CSRBatch, eps: float = 1e-12
) -> Tensor:
    """Fused mixture-decode NLL: ``nll_from_probs(theta @ beta, bow)`` as
    one node that reads the probabilities only at the nonzero counts.

    The mixture models (ETM-style decoders) only consume ``p = theta @
    beta`` inside the count-weighted NLL, so only the ``nnz`` probabilities
    paired with a count enter the loss, and the backward coefficient
    ``C[d, v] = -(g/B) * bow[d, v] / (p[d, v] + eps)`` is zero elsewhere.
    Two decodes compute them; the batch density picks one
    (:data:`_GEMM_DECODE_DENSITY`):

    - **GEMM** (density at or above the constant): one BLAS ``theta @
      beta``, gathered at the nonzeros; the backward scatters ``C`` into a
      dense ``(batch, vocab)`` buffer and runs ``C @ beta.T`` and
      ``theta.T @ C`` — the very products ``Tensor.__matmul__``'s backward
      runs on the dense chain, so both gradients are bitwise equal to it.
    - **gather** (sparser batches): ``p`` only at the nonzeros, O(nnz·K)
      through row/column gathers, and ``C`` pushed back through two
      sparse×dense products; never materializes ``theta @ beta``.

    The loss matches the dense chain to float rounding (it sums the same
    count-weighted logs in a different order).  ``bow`` is a constant.
    """
    theta = as_tensor(theta)
    beta = as_tensor(beta)
    if not isinstance(bow, CSRBatch):
        raise ShapeError(
            f"nll_from_mixture_csr expects a CSRBatch bow, got "
            f"{type(bow).__name__}"
        )
    if theta.ndim != 2 or beta.ndim != 2 or theta.shape[1] != beta.shape[0]:
        raise ShapeError(
            f"nll_from_mixture_csr expects (batch, topics) @ (topics, vocab), "
            f"got {theta.shape} @ {beta.shape}"
        )
    if bow.shape != (theta.shape[0], beta.shape[1]):
        raise ShapeError(
            f"nll_from_mixture_csr shape mismatch: theta @ beta is "
            f"{(theta.shape[0], beta.shape[1])} but bow is {bow.shape}"
        )
    if bow.density >= _GEMM_DECODE_DENSITY:
        return _mixture_nll_gemm(theta, beta, bow, eps)
    return _mixture_nll_gather(theta, beta, bow, eps)


def _mixture_nll_gemm(
    theta: Tensor, beta: Tensor, bow: CSRBatch, eps: float
) -> Tensor:
    """GEMM decode of :func:`nll_from_mixture_csr` (validated operands)."""
    dtype = np.result_type(theta.data.dtype, beta.data.dtype)
    counts = bow.data.astype(dtype, copy=False)
    batch, vocab = bow.shape
    # Flat offsets of the nonzeros in a C-ordered (batch, vocab) array.
    flat = bow.row_ids() * vocab + bow.indices
    denom_nz = (theta.data @ beta.data).ravel().take(flat)
    denom_nz += eps
    total = -float(counts @ np.log(denom_nz)) if bow.nnz else 0.0
    out_data = np.asarray(total / max(batch, 1), dtype=dtype)

    def backward(grad: np.ndarray) -> None:
        scale = -float(grad) / batch
        coeff = np.zeros((batch, vocab), dtype=dtype)
        coeff.ravel()[flat] = scale * counts / denom_nz
        if theta.requires_grad:
            theta._accumulate(coeff @ beta.data.T)
        if beta.requires_grad:
            beta._accumulate(theta.data.T @ coeff)

    return Tensor._make(out_data, (theta, beta), backward)


def _mixture_nll_gather(
    theta: Tensor, beta: Tensor, bow: CSRBatch, eps: float
) -> Tensor:
    """Gather decode of :func:`nll_from_mixture_csr` (validated operands)."""
    dtype = np.result_type(theta.data.dtype, beta.data.dtype)
    counts = bow.data.astype(dtype, copy=False)
    rows = bow.row_ids()
    cols = bow.indices
    batch = bow.shape[0]
    if bow.nnz:
        # p at nonzero positions only: gather the participating document
        # rows of theta and word columns of beta, reduce over topics.
        denom_nz = (
            np.einsum("nk,kn->n", theta.data[rows], beta.data[:, cols]) + eps
        )
        total = -float(counts @ np.log(denom_nz))
    else:
        denom_nz = np.zeros(0, dtype=dtype)
        total = 0.0
    out_data = np.asarray(total / max(batch, 1), dtype=dtype)

    def backward(grad: np.ndarray) -> None:
        scale = -float(grad) / batch
        if not bow.nnz:
            if theta.requires_grad:
                theta._accumulate(np.zeros_like(theta.data))
            if beta.requires_grad:
                beta._accumulate(np.zeros_like(beta.data))
            return
        coeff = CSRBatch(
            scale * counts / denom_nz, bow.indices, bow.indptr, bow.shape
        )
        if theta.requires_grad:
            theta._accumulate(
                np.asarray(
                    coeff.matmul_dense(transpose_contiguous(beta.data)), dtype=dtype
                )
            )
        if beta.requires_grad:
            beta._accumulate(
                transpose_contiguous(
                    np.asarray(coeff.t_matmul_dense(theta.data), dtype=dtype)
                )
            )

    return Tensor._make(out_data, (theta, beta), backward)


def log_softmax_nll(logits: Tensor, bow) -> Tensor:
    """Fused ``cross_entropy_with_probs(log_softmax(logits), bow)``.

    The ProdLDA-style decoder head: row-wise log-softmax of the logits
    followed by the weighted NLL against bag-of-words counts, collapsed
    into one node.  The backward is the classic softmax cross-entropy
    form ``dlogits = (g/B) * (softmax * total_counts - counts)`` — no
    ``(batch, vocab)`` log-prob gradient temporary chain at all.

    A :class:`~repro.tensor.sparse.CSRBatch` ``bow`` dispatches to
    :func:`log_softmax_nll_csr`.
    """
    if isinstance(bow, CSRBatch):
        return log_softmax_nll_csr(logits, bow)
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(
            f"log_softmax_nll expects (batch, vocab) logits, got {logits.shape}"
        )
    counts = _constant(bow, logits.data.dtype)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sums)
    per_doc = -np.einsum("dv,dv->d", counts, log_probs)
    out_data = np.asarray(per_doc.mean())
    probs = exps
    probs /= sums
    totals = counts.sum(axis=1, keepdims=True)
    batch = logits.shape[0]

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            scale = float(grad) / batch
            logits._accumulate(scale * (probs * totals - counts))

    return Tensor._make(out_data, (logits,), backward)


def log_softmax_nll_csr(logits: Tensor, bow: CSRBatch) -> Tensor:
    """Sparse-counts softmax cross-entropy: count terms only at nonzeros.

    The softmax normaliser is inherently dense (every logit feeds every
    row's partition function), so the shift/exp/sum run dense as in
    :func:`log_softmax_nll`; but the count-weighted log-probability sum and
    the ``- counts`` correction in the backward touch only the ``nnz``
    stored positions, skipping the O(batch·vocab) einsum over zeros.
    """
    if not isinstance(bow, CSRBatch):
        raise ShapeError(
            f"log_softmax_nll_csr expects a CSRBatch bow, got "
            f"{type(bow).__name__}"
        )
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(
            f"log_softmax_nll_csr expects (batch, vocab) logits, got "
            f"{logits.shape}"
        )
    if bow.shape != logits.shape:
        raise ShapeError(
            f"log_softmax_nll_csr shape mismatch: logits {logits.shape} "
            f"vs bow {bow.shape}"
        )
    dtype = logits.data.dtype
    counts = bow.data.astype(dtype, copy=False)
    rows = bow.row_ids()
    cols = bow.indices
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1)
    log_sums = np.log(sums)
    batch = logits.shape[0]
    if bow.nnz:
        log_probs_nz = shifted[rows, cols] - log_sums[rows]
        total = -float(counts @ log_probs_nz)
    else:
        total = 0.0
    out_data = np.asarray(total / max(batch, 1), dtype=dtype)
    probs = exps
    probs /= sums[:, None]
    row_totals = bow.row_sums().astype(dtype, copy=False)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            scale = float(grad) / batch
            glogits = probs * (scale * row_totals)[:, None]
            if bow.nnz:
                # Canonical CSR: unique (row, col) pairs.
                glogits[rows, cols] -= scale * counts
            logits._accumulate(glogits)

    return Tensor._make(out_data, (logits,), backward)


def kl_normal_standard(mu: Tensor, logvar: Tensor) -> Tensor:
    """Fused mean KL( N(mu, exp(logvar)) || N(0, I) ) over the batch.

    Closed form ``0.5 * sum(exp(logvar) + mu^2 - 1 - logvar)`` with the
    analytic backward ``dmu = (g/B) * mu``, ``dlogvar = (g/B) * 0.5 *
    (exp(logvar) - 1)``.
    """
    mu = as_tensor(mu)
    logvar = as_tensor(logvar)
    if mu.ndim != 2 or logvar.shape != mu.shape:
        raise ShapeError(
            f"kl_normal_standard expects matching (batch, dim) inputs, got "
            f"{mu.shape} and {logvar.shape}"
        )
    ev = np.exp(logvar.data)
    per_doc = 0.5 * (ev + mu.data * mu.data - 1.0 - logvar.data).sum(axis=1)
    out_data = np.asarray(per_doc.mean())
    batch = mu.shape[0]

    def backward(grad: np.ndarray) -> None:
        scale = float(grad) / batch
        if mu.requires_grad:
            mu._accumulate(scale * mu.data)
        if logvar.requires_grad:
            logvar._accumulate((0.5 * scale) * (ev - 1.0))

    return Tensor._make(out_data, (mu, logvar), backward)


# ----------------------------------------------------------------------
# batch normalisation
# ----------------------------------------------------------------------
def batch_norm(
    x: Tensor,
    running_mean: np.ndarray | None = None,
    running_var: np.ndarray | None = None,
    weight: Tensor | None = None,
    bias: Tensor | None = None,
    training: bool = True,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Fused batch normalisation over ``(batch, features)`` inputs.

    Training mode normalises by the batch statistics (differentiating
    through them, i.e. the full batch-norm backward) and, when running
    statistic arrays are supplied, updates them **in place** with the
    standard EMA (unbiased variance), like ``torch.nn.functional
    .batch_norm``.  Eval mode normalises by the running statistics as
    constants.  Replaces the mean / centering / variance / sqrt / divide /
    scale / shift chain (9+ nodes) with one node.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"batch_norm expects a (batch, features) input, got {x.shape}")
    n = x.shape[0]
    weight_data = None if weight is None else weight.data
    bias_data = None if bias is None else bias.data
    if training:
        mean = x.data.mean(axis=0)
        centered = x.data - mean
        var = np.einsum("bf,bf->f", centered, centered) / n
        if running_mean is not None:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean
        if running_var is not None:
            running_var *= 1.0 - momentum
            running_var += (momentum * n / max(n - 1, 1)) * var
        out_data, xhat, inv_std = kernels.batch_norm_affine(
            centered, var, weight_data, bias_data, eps
        )
    else:
        if running_mean is None or running_var is None:
            raise ShapeError("batch_norm in eval mode requires running statistics")
        out_data, xhat, inv_std = kernels.batch_norm_eval(
            x.data, running_mean, running_var, weight_data, bias_data, eps
        )

    parents = tuple(p for p in (x, weight, bias) if p is not None)

    def backward(grad: np.ndarray) -> None:
        gxhat = grad * weight.data if weight is not None else grad
        if x.requires_grad:
            if training:
                sum_g = gxhat.sum(axis=0)
                sum_gx = np.einsum("bf,bf->f", gxhat, xhat)
                x._accumulate(
                    (inv_std / n) * (n * gxhat - sum_g - xhat * sum_gx)
                )
            else:
                x._accumulate(gxhat * inv_std)
        if weight is not None and weight.requires_grad:
            weight._accumulate(np.einsum("bf,bf->f", grad, xhat))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))

    return Tensor._make(out_data, parents, backward)

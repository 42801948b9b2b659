"""The topic-wise contrastive loss (Eq. 2) composed from primitive autodiff ops.

Executable documentation of the formulas in the docstring of
:mod:`repro.core.contrastive` and the oracle for its fused kernel
:func:`~repro.core.contrastive.topic_contrastive_loss`, which must stay
bitwise equal to it in the loss and the gradient
(``test_contrastive.py``, ``test_contrastive_training_oracle.py``).
"""

from repro.core.contrastive import _EPS, ContrastiveMode, _check_shapes
from repro.core.similarity import SimilarityKernel
from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, as_tensor


def topic_contrastive_loss_composed(
    samples: Tensor,
    kernel: SimilarityKernel,
    mode: ContrastiveMode = ContrastiveMode.FULL,
    negative_weight: float = 1.0,
) -> Tensor:
    """Reference composition of :func:`topic_contrastive_loss`.

    Builds Eq. 2 from primitive autodiff ops (~20 graph nodes and
    closures).  The fused kernel must stay bitwise equal to it in the
    loss and the gradient; kept for tests and as executable
    documentation of the formulas in the module docstring.
    """
    samples = as_tensor(samples)
    _check_shapes(samples, kernel)

    # The kernel caches the cast constants per dtype; wrapping them is
    # no copy.
    dtype = samples.data.dtype
    exp_kernel = Tensor(kernel.exp_matrix_as(dtype))  # (V, V), constant
    diag = Tensor(kernel.exp_diag_as(dtype))          # (V,), constant

    # S[k, w] = Σ_w' y[k, w'] exp(K(w, w'))  — kernel is symmetric.
    similarity_sums = samples @ exp_kernel           # (K, V)
    self_term = samples * diag                       # anchor's own pair
    positives = similarity_sums - self_term + _EPS   # (K, V)
    total = similarity_sums.sum(axis=0, keepdims=True)  # Σ_l S[l, w], (1, V)
    negatives = total - similarity_sums + _EPS       # cross-topic part
    denominators = positives + negatives * negative_weight + _EPS

    if mode is ContrastiveMode.FULL:
        per_anchor = denominators.log() - positives.log()
    elif mode is ContrastiveMode.POSITIVE_ONLY:
        per_anchor = -positives.log()
    elif mode is ContrastiveMode.NEGATIVE_ONLY:
        per_anchor = negatives.log()
    else:  # pragma: no cover - exhaustive enum
        raise ShapeError(f"unknown mode {mode!r}")
    total_weight = samples.sum() + _EPS
    return (samples * per_anchor).sum() / total_weight

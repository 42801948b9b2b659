"""The topic-wise contrastive loss (Eq. 2) over relaxed word samples.

With hard samples, Eq. 2 reads, for every anchor word i drawn from topic k,

    L_con = Σ_i -log(  Σ_{p ∈ P(i)} exp(K(i, p))  /  Σ_{a ≠ i} exp(K(i, a)) )

where P(i) are the other words sampled from i's topic.  With the relaxed
v-hot vectors y_k ∈ [0,1]^V produced by the subset sampler, every word w is
a *soft* anchor of topic k with weight y_k[w], and the sums over sampled
words become weighted sums over the vocabulary:

    S[k, w]   = Σ_{w'} y_k[w'] · exp(K(w, w'))           (one matmul y·E)
    pos[k, w] = S[k, w] − y_k[w]·exp(K(w, w))            (exclude the anchor)
    den[k, w] = Σ_l S[l, w] − y_k[w]·exp(K(w, w))        (all other samples)
    L_con     = Σ_k Σ_w y_k[w] · ( log den[k, w] − log pos[k, w] ) / (K·v)

This reduces to the hard-sample Eq. 2 exactly when each y_k is a 0/1
indicator, and is differentiable in y (hence in β) otherwise.  The single
``(K,V)·(V,V)`` product makes the cost O(K·V²) per step — the Θ(V²) memory
for exp(K) is the cost the paper's §V.E analyses.

:func:`topic_contrastive_loss` is the fused kernel: one graph node whose
hand-derived backward replays, formula for formula and in the autodiff
engine's accumulation order, the graph that the composed reference
``topic_contrastive_loss_composed`` (``tests/core/_composed_contrastive.py``)
builds from ~20 primitive nodes — so values and gradients are bitwise
equal (``tests/core/test_contrastive.py``).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.similarity import SimilarityKernel
from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, as_tensor

_EPS = 1e-12


class ContrastiveMode(str, enum.Enum):
    """Which parts of the contrastive objective are active.

    FULL is ContraTopic; POSITIVE_ONLY / NEGATIVE_ONLY are the Table-II
    ablation variants ContraTopic-P and ContraTopic-N.
    """

    FULL = "full"
    POSITIVE_ONLY = "positive"
    NEGATIVE_ONLY = "negative"


def topic_contrastive_loss(
    samples: Tensor,
    kernel: SimilarityKernel,
    mode: ContrastiveMode = ContrastiveMode.FULL,
    negative_weight: float = 1.0,
) -> Tensor:
    """Topic-wise contrastive loss over relaxed (or hard) word samples.

    Parameters
    ----------
    samples:
        ``(K, V)`` relaxed v-hot sample weights per topic (rows sum to v).
        Hard 0/1 indicator rows are a special case.
    kernel:
        Precomputed similarity kernel (NPMI or embedding inner product).
    mode:
        FULL uses Eq. 2; POSITIVE_ONLY maximizes within-topic similarity
        only; NEGATIVE_ONLY minimizes cross-topic similarity only.
    negative_weight:
        Multiplier on the cross-topic (negative-pair) mass in the
        denominator.  1.0 is the plain Eq. 2; the paper's §IV.B notes that
        "incorporating a hyper-parameter to balance the weights of negative
        word pairs can also be considered if necessary" — values > 1 push
        harder for topic diversity.

    Returns
    -------
    Scalar tensor, normalized by the total sample weight so that λ has a
    comparable scale across K and v choices.
    """
    samples = as_tensor(samples)
    _check_shapes(samples, kernel)
    if not isinstance(mode, ContrastiveMode):
        raise ShapeError(f"unknown mode {mode!r}")
    positive = mode is not ContrastiveMode.NEGATIVE_ONLY
    negative = mode is not ContrastiveMode.POSITIVE_ONLY
    negative_weight = float(negative_weight)  # weak scalar: keeps float32

    y = samples.data
    dtype = y.dtype
    # The cached constants are read here, not copied: a kernel refreshed
    # in place (the streaming path) is seen by the next call.
    exp_kernel = kernel.exp_matrix_as(dtype)            # (V, V)
    diag = kernel.exp_diag_as(dtype)                    # (V,)

    # S[k, w] = Σ_w' y[k, w'] exp(K(w, w'))  — kernel is symmetric.
    similarity_sums = y @ exp_kernel                    # (K, V)
    positives = negatives = denominators = None
    if positive:
        positives = np.multiply(y, diag)                # anchor's own pair
        np.subtract(similarity_sums, positives, out=positives)
        positives += _EPS
    if negative:
        total = similarity_sums.sum(axis=0, keepdims=True)
        negatives = np.subtract(total, similarity_sums, out=similarity_sums)
        negatives += _EPS                                # cross-topic part
    per_anchor = np.empty_like(y)
    if mode is ContrastiveMode.FULL:
        denominators = np.multiply(negatives, negative_weight)
        np.add(positives, denominators, out=denominators)
        denominators += _EPS
        np.log(denominators, out=per_anchor)
        per_anchor -= np.log(positives)
    elif mode is ContrastiveMode.POSITIVE_ONLY:
        np.negative(np.log(positives, out=per_anchor), out=per_anchor)
    else:
        np.log(negatives, out=per_anchor)
    weighted_sum = np.asarray((y * per_anchor).sum())
    total_weight = np.asarray(y.sum() + _EPS)
    out_data = weighted_sum / total_weight

    def backward(grad: np.ndarray) -> None:
        if not samples.requires_grad:
            return
        # The composed graph's per-node gradients, in the order the engine
        # runs them; the comments name the node.  Sums of several
        # contributions are formed in the engine's accumulation order,
        # which is what keeps the result bitwise equal.
        g_sum = grad / total_weight                      # Σ y·a
        g_weight = -grad * weighted_sum / (total_weight**2)  # Σ y + ε
        g_samples = g_sum * per_anchor                   # y·a -> y
        g_anchor = g_sum * y                             # y·a -> a
        if mode is ContrastiveMode.FULL:
            g_den = g_anchor / denominators              # log(den)
            g_neg = np.multiply(g_den, negative_weight)  # neg·w
        elif mode is ContrastiveMode.NEGATIVE_ONLY:
            g_neg = np.divide(g_anchor, negatives, out=g_anchor)  # log(neg)
        if negative:
            # neg = Σ_l S[l] − S: the column sum and −S both reach S.
            g_sims = np.negative(g_neg)
            g_sims += g_neg.sum(axis=0, keepdims=True)
        if positive:
            np.negative(g_anchor, out=g_anchor)          # −log(pos)
            g_pos = np.divide(g_anchor, positives, out=g_anchor)
            if mode is ContrastiveMode.FULL:
                g_pos = np.add(g_den, g_pos, out=g_pos)  # den = pos + …
            # pos = S − y·diag
            if negative:
                g_sims += g_pos
            else:
                g_sims = g_pos
        g_samples += g_sims @ exp_kernel.T               # S = y @ exp(K)
        if positive:
            np.negative(g_pos, out=g_pos)
            g_pos *= diag                                # y·diag
            g_samples += g_pos
        g_samples += g_weight                            # Σ y
        samples._accumulate(g_samples)

    return Tensor._make(out_data, (samples,), backward)


def _check_shapes(samples: Tensor, kernel: SimilarityKernel) -> None:
    if samples.ndim != 2:
        raise ShapeError(f"samples must be (K, V), got {samples.shape}")
    v = samples.shape[1]
    if kernel.vocab_size != v:
        raise ShapeError(
            f"kernel vocab {kernel.vocab_size} != samples vocab {v}"
        )

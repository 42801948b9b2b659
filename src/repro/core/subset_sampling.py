"""Differentiable top-k subset sampling without replacement.

Implements the relaxed subset sampler of Xie & Ermon (2019) used in the
paper's §IV.B: given topic-word distributions β and Gumbel noise g, a
Gumbel-max *key* is computed per word,

    r̂_k = log β_k + g_k                                    (per Eq. 3's logits)

and a relaxed top-v procedure is applied to the keys:

    p(r_k^j = 1) = softmax(r_k^j / τ)                       (Eq. 5)
    r_k^{j+1}   = r_k^j + log(1 - p(r_k^j = 1))             (Eq. 4)

The relaxed v-hot sample is y_k = Σ_{j=1..v} p(r_k^j = 1)   — a vector in
[0, 1]^V summing to v that converges to the exact hard top-v indicator as
τ → 0, while remaining differentiable w.r.t. β for any τ > 0.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.tensor import fused
from repro.tensor.tensor import Tensor, as_tensor
from repro.tensor.tensor import where as tensor_where

_EPS = 1e-12


def sample_gumbel(
    shape: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Standard Gumbel(0, 1) noise: ``-log(-log U)`` with U ~ Uniform(0,1).

    Computed in place in the one uniform buffer: the same five ufuncs in
    the same order as the expression above, so the draw is unchanged.
    """
    noise = rng.random(shape)
    np.clip(noise, _EPS, 1.0 - _EPS, out=noise)
    np.log(noise, out=noise)
    np.negative(noise, out=noise)
    np.log(noise, out=noise)
    return np.negative(noise, out=noise)


#: Once a word's selection probability exceeds this, it is knocked out
#: with a decisive constant penalty instead of ``log(1 - p)`` (which
#: diverges); no gradient flows through the saturated branch.
_SATURATION = 1.0 - 1e-4
_KNOCKOUT = -1e6


def _validate(log_probs: Tensor, num_samples: int, temperature: float) -> None:
    k, v = log_probs.shape
    if not 1 <= num_samples <= v:
        raise ConfigError(f"num_samples must be in [1, {v}], got {num_samples}")
    if temperature <= 0:
        raise ConfigError("temperature must be positive")


def _resolve_noise(
    log_probs: Tensor,
    gumbel_noise: np.ndarray | None,
    rng: np.random.Generator | None,
) -> np.ndarray:
    if gumbel_noise is None:
        if rng is None:
            raise ConfigError("provide gumbel_noise or rng")
        gumbel_noise = sample_gumbel(log_probs.shape, rng)
    return np.asarray(gumbel_noise)


def relaxed_topk_sample(
    log_probs: Tensor,
    num_samples: int,
    temperature: float,
    gumbel_noise: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Relaxed v-hot subset sample per row of ``log_probs``.

    Parameters
    ----------
    log_probs:
        ``(K, V)`` differentiable log-probabilities (log β).
    num_samples:
        v — number of words drawn per topic, without replacement.
    temperature:
        τ_g of Eq. 5; smaller means closer to a hard top-v.
    gumbel_noise:
        Pre-drawn ``(K, V)`` Gumbel noise; if absent, drawn from ``rng``.

    Returns
    -------
    ``(K, V)`` tensor y with entries in [0, 1] and rows summing to
    ``num_samples``.

    This is the fused kernel: the whole v-step recurrence runs in raw
    numpy as one graph node, with a single hand-derived backward that
    replays it in reverse (the per-step probabilities are kept from the
    forward).  The composed reference —
    :func:`relaxed_topk_sample_composed`, which builds ~6 graph nodes per
    step — stays as executable documentation and test oracle; the two
    give bitwise-equal samples and agree to 1e-8 in gradients (see
    ``tests/core/test_subset_sampling.py``).
    The recurrence itself is inherently sequential in ``j`` (step ``j+1``
    reads step ``j``'s probabilities), so the fusion removes the
    per-step graph/closure overhead rather than the loop.  Both sweeps
    allocate nothing per step: each step's softmax is written straight
    into its slot of the kept probabilities, the suppression and the
    reverse sweep's terms go through a few preallocated ``(K, V)`` work
    buffers and one reused boolean saturation mask (``out=`` ufuncs, the
    same operations in the same order, so results are bit for bit those
    of the allocating form), and the last step's suppression — which no
    later step reads — is skipped.
    """
    log_probs = as_tensor(log_probs)
    _validate(log_probs, num_samples, temperature)
    noise = _resolve_noise(log_probs, gumbel_noise, rng)
    shape = log_probs.shape
    dtype = log_probs.data.dtype
    inv_temp = 1.0 / temperature
    knockout = dtype.type(_KNOCKOUT)

    r = log_probs.data + noise.astype(dtype, copy=False)
    # Per-step selection probabilities, kept for the reverse sweep.
    probs = np.empty((num_samples, *shape), dtype=dtype)
    out_data = np.zeros(shape, dtype=dtype)
    suppression = np.empty(shape, dtype=dtype)
    saturated = np.empty(shape, dtype=bool)
    last = num_samples - 1
    for j in range(num_samples):
        # Eq. 5: max-shifted softmax of the tempered keys.
        p = np.multiply(r, inv_temp, out=probs[j])
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        out_data += p
        if j == last:
            break
        # Eq. 4's suppression log(1 - p), with the saturation knock-out.
        np.minimum(p, _SATURATION, out=suppression)
        np.subtract(1.0, suppression, out=suppression)
        suppression += _EPS
        np.log(suppression, out=suppression)
        np.greater(p, _SATURATION, out=saturated)
        np.copyto(suppression, knockout, where=saturated)
        r += suppression

    def backward(grad: np.ndarray) -> None:
        if not log_probs.requires_grad:
            return
        # Reverse sweep of the recurrence.  ``gr`` carries dL/dr_{j+1};
        # each step folds in (a) the direct dL/dp_j = grad from the output
        # sum, (b) the suppression path p_j -> r_{j+1} whose derivative is
        # -1/(1 - p + eps) below saturation and exactly 0 above it (the
        # knock-out constant), then pushes both through the softmax.
        gr = np.zeros(shape, dtype=dtype)
        gp = np.empty(shape, dtype=dtype)
        step = np.empty(shape, dtype=dtype)
        mask = np.empty(shape, dtype=bool)
        zero = dtype.type(0.0)
        for j in range(num_samples - 1, -1, -1):
            p = probs[j]
            np.subtract(1.0, p, out=gp)
            gp += _EPS
            np.divide(-1.0, gp, out=gp)
            np.greater(p, _SATURATION, out=mask)
            np.copyto(gp, zero, where=mask)
            gp *= gr
            gp += grad
            inner = np.einsum("kv,kv->k", gp, p)[:, None]
            np.multiply(inv_temp, p, out=step)
            gp -= inner
            step *= gp
            gr += step
        log_probs._accumulate(gr)

    return Tensor._make(out_data, (log_probs,), backward)


def relaxed_topk_sample_composed(
    log_probs: Tensor,
    num_samples: int,
    temperature: float,
    gumbel_noise: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Reference composition of :func:`relaxed_topk_sample`.

    Builds the recurrence from primitive autodiff ops (softmax / clip /
    log / where — ~6 graph nodes and closures per sampled word); the
    fused kernel must stay equivalent to this to 1e-8 in both the sample
    and the gradient.  Kept for tests and as executable documentation of
    Eqs. 4-5.
    """
    log_probs = as_tensor(log_probs)
    _validate(log_probs, num_samples, temperature)
    noise = _resolve_noise(log_probs, gumbel_noise, rng)

    keys = log_probs + Tensor(noise, dtype=log_probs.data.dtype)
    inv_temp = 1.0 / temperature
    y: Tensor | None = None
    r = keys
    for _ in range(num_samples):
        # Eq. 5: softmax of the tempered keys (fused max-shifted kernel).
        p = fused.softmax(r * inv_temp, axis=1)
        y = p if y is None else y + p
        # Eq. 4's suppression log(1 - p).  For p -> 1 the log diverges and
        # a merely-large finite value may still lose to words whose own
        # log-probability is extremely negative; once a word is effectively
        # fully selected, knock it out with a decisive constant penalty
        # (no gradient flows through the saturated branch anyway).
        saturated = p.data > _SATURATION
        suppression = tensor_where(
            saturated,
            Tensor(np.full(p.shape, _KNOCKOUT, dtype=p.data.dtype)),
            (1.0 - p.clip(high=_SATURATION) + _EPS).log(),
        )
        r = r + suppression
    assert y is not None
    return y


def hard_topk_sample(
    log_probs: np.ndarray,
    num_samples: int,
    gumbel_noise: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Exact (non-relaxed) Gumbel-top-k sample: word ids, ``(K, v)``.

    This is the limit of :func:`relaxed_topk_sample` as τ → 0 under the
    same noise, used for evaluation and for checking the relaxation.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    if gumbel_noise is None:
        if rng is None:
            raise ConfigError("provide gumbel_noise or rng")
        gumbel_noise = sample_gumbel(log_probs.shape, rng)
    keys = log_probs + gumbel_noise
    return np.argsort(-keys, axis=1)[:, :num_samples]

"""The allocating sampler and Gumbel draw as they stood before the
in-place rewrite, kept verbatim as bitwise oracles.

The composed reference (``_composed_sampler``) reproduces the log-domain
body's *samples* bit for bit but its gradient only to ~1e-8 (its softmax
and tempering are separate graph nodes, so the backward rounds
differently).  The log-domain body — today the sampler's fallback —
claims more: bitwise equality with the allocating form in samples *and*
gradients, so the tests pin it against this copy.
"""

import numpy as np

from repro.core.subset_sampling import (
    _EPS,
    _KNOCKOUT,
    _SATURATION,
    _resolve_noise,
    _validate,
)
from repro.tensor.tensor import Tensor, as_tensor


def legacy_sample_gumbel(shape, rng):
    uniform = rng.random(shape)
    return -np.log(-np.log(np.clip(uniform, _EPS, 1.0 - _EPS)))


def legacy_relaxed_topk_sample(
    log_probs, num_samples, temperature, gumbel_noise=None, rng=None
):
    log_probs = as_tensor(log_probs)
    _validate(log_probs, num_samples, temperature)
    noise = _resolve_noise(log_probs, gumbel_noise, rng)
    dtype = log_probs.data.dtype
    inv_temp = 1.0 / temperature

    r = log_probs.data + noise.astype(dtype, copy=False)
    probs = np.empty((num_samples, *log_probs.shape), dtype=dtype)
    out_data = np.zeros(log_probs.shape, dtype=dtype)
    for j in range(num_samples):
        p = r * inv_temp
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        probs[j] = p
        out_data += p
        suppression = np.where(
            p > _SATURATION,
            dtype.type(_KNOCKOUT),
            np.log(1.0 - np.minimum(p, _SATURATION) + _EPS),
        )
        r = r + suppression

    def backward(grad):
        if not log_probs.requires_grad:
            return
        gr = np.zeros(log_probs.shape, dtype=dtype)
        for j in range(num_samples - 1, -1, -1):
            p = probs[j]
            gp = np.where(p > _SATURATION, 0.0, -1.0 / (1.0 - p + _EPS))
            gp *= gr
            gp += grad
            inner = np.einsum("kv,kv->k", gp, p)[:, None]
            gr += (inv_temp * p) * (gp - inner)
        log_probs._accumulate(gr)

    return Tensor._make(out_data, (log_probs,), backward)

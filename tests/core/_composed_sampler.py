"""The relaxed top-k sampler composed from primitive autodiff ops.

Executable documentation of Eqs. 4-5 and the oracle for
:func:`repro.core.subset_sampling.relaxed_topk_sample`: softmax / clip /
log / where, ~6 graph nodes and closures per sampled word.  The kernel's
log-domain fallback reproduces its samples bit for bit and its gradient
to 1e-8 (the tempering and the softmax are separate nodes here, so the
backward rounds differently); the probability domain agrees with it in
float64 to 1e-8 in samples and gradients.
"""

import numpy as np

from repro.core.subset_sampling import (
    _EPS,
    _KNOCKOUT,
    _SATURATION,
    _resolve_noise,
    _validate,
)
from repro.tensor import fused
from repro.tensor.tensor import Tensor, as_tensor
from repro.tensor.tensor import where as tensor_where


def relaxed_topk_sample_composed(
    log_probs, num_samples, temperature, gumbel_noise=None, rng=None
):
    log_probs = as_tensor(log_probs)
    _validate(log_probs, num_samples, temperature)
    noise = _resolve_noise(log_probs, gumbel_noise, rng)

    keys = log_probs + Tensor(noise, dtype=log_probs.data.dtype)
    inv_temp = 1.0 / temperature
    y = None
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
    return y

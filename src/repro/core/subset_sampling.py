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

Probability domain
------------------
Exponentiating Eq. 4 gives exp(r^{j+1}/τ) = exp(r^j/τ)·(1 − p_j)^{1/τ},
and Eq. 5 normalizes exp(r^j/τ) per row, so the whole recurrence runs on
the probabilities themselves:

    w_j     = (1 + ε − p_j)^{1/τ}          (0 where p_j > _SATURATION)
    s_j     = Σ_k p_j,k · w_j,k             (one number per topic)
    p_{j+1} = p_j ⊙ w_j / s_j

One max-shifted softmax of (log β + g)/τ starts it; each further step is
a subtraction, a power, a product, a row sum and a rescale, with no
``exp`` and no ``log``.  The power is a square at τ = 0.5 and vanishes
at τ = 1 (:func:`_power`).  The log domain's saturation rule — a word whose
probability exceeds ``_SATURATION`` gets the key penalty ``_KNOCKOUT`` —
is exp(−1e6/τ) = 0 here, which is ``w = 0``; as in the log domain, no
gradient flows through it.  A saturated word holds all but 1 −
``_SATURATION`` of its row, so only a row whose unmasked s_j is that
small can hold one; a step applies the rule only when some row is
(``_saturation_bound``).

The backward is the reverse sweep of Eqs. 4-5 over the keys, and reads
only the kept p_j: with R_j = dL/dr_j and G_j = dL/dy + R_{j+1}·dr_{j+1}/dp_j,

    dr_{j+1}/dp_j = −1/(1 + ε − p_j)       (0 where p_j > _SATURATION)
    R_j           = R_{j+1} + (1/τ)·p_j ⊙ (G_j − ⟨G_j, p_j⟩)

It is the gradient of the probability-domain recurrence too, which
computes the same p_j.  Differentiating that recurrence directly,
through q_j = p_j ⊙ w_j and p_{j+1} = q_j / s_j, needs
dq/dp = (1 + ε − p)^{1/τ − 1}·(1 + ε − (1 + 1/τ)·p): one more power per
step wherever 1/τ − 1 is not 0, 1 or 2.  Measured, it was no faster than
the key sweep at τ = 0.5 and 1 and twice as slow at τ = 0.3, so the key
sweep stays.  The forward therefore keeps the (v, K, V) probabilities
and a flag per step, nothing more.

The log domain re-shifts the keys by their maximum at every step; the
probability domain cannot.  Once the words that survive a step carry
almost no mass, p_j ⊙ w_j underflows and what is left is rounding (at
τ = 1e-3 a row is exactly one-hot after the first softmax, s = 0 and the
next step is 0/0).  Every step therefore checks its row sums against
``_SUM_FLOOR`` = sqrt(finfo(dtype).tiny): a row above it loses only
products below tiny, i.e. words under sqrt(tiny) of the row's mass
(1e-19 in float32), far below the precision either domain carries.
When any row falls under it, the whole call reruns through
:func:`_log_domain`, the recurrence on the keys as Eqs. 4-5 write it.
At the paper's τ = 0.5 the fallback does not fire in training;
:func:`sampler_stats` counts calls and fallbacks per process, so a run
can tell.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.tensor.tensor import Tensor, as_tensor

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

#: Smallest row sum s_j the probability domain trusts, per dtype.
_SUM_FLOOR = {
    np.dtype(t): np.sqrt(np.finfo(t).tiny) for t in (np.float32, np.float64)
}

_SAMPLER_STATS = {"calls": 0, "log_domain_fallbacks": 0}


def sampler_stats() -> dict[str, int]:
    """Process-wide sampler counters: calls, and calls that fell back to
    the log domain (since the last reset)."""
    return dict(_SAMPLER_STATS)


def reset_sampler_stats() -> None:
    """Zero the process-wide sampler counters (tests use this)."""
    for key in _SAMPLER_STATS:
        _SAMPLER_STATS[key] = 0


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

    This is one graph node with a hand-derived backward.  It runs the
    recurrence in the probability domain (module docstring) and falls
    back to the log-domain recurrence for the whole call when a row's
    surviving mass underflows.  The composed reference
    (``tests/core/_composed_sampler.py``, ~6 graph nodes per step) is
    the oracle for both: the fallback's samples equal it bit for bit,
    and in float64 the probability domain agrees with it to 1e-8 in
    samples and gradients (``tests/core/test_subset_sampling.py``).
    """
    log_probs = as_tensor(log_probs)
    _validate(log_probs, num_samples, temperature)
    noise = _resolve_noise(log_probs, gumbel_noise, rng)
    keys = log_probs.data + noise.astype(log_probs.data.dtype, copy=False)
    inv_temp = 1.0 / temperature
    _SAMPLER_STATS["calls"] += 1
    sample = _probability_domain(log_probs, keys, num_samples, inv_temp)
    if sample is None:
        _SAMPLER_STATS["log_domain_fallbacks"] += 1
        sample = _log_domain(log_probs, keys, num_samples, inv_temp)
    return sample


def _power(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` in place: ``np.power`` takes no fast path for
    the exponents τ = 1 and τ = 0.5 give, so those are spelled out."""
    if exponent == 1.0:
        return base
    if exponent == 2.0:
        return np.square(base, out=base)
    return np.power(base, exponent, out=base)


def _saturation_bound(inv_temp: float) -> float:
    """A row sum of p ⊙ (1 + ε − p)^{1/τ} above this rules out a saturated
    word in the row: its other words hold under 1 − _SATURATION of the
    mass, each weighted at most (1 + ε)^{1/τ}, and the saturated word's
    own weight is under (1 − _SATURATION + ε)^{1/τ}.  Doubled against
    rounding."""
    rest = 1.0 - _SATURATION
    return 2.0 * (rest * (1.0 + _EPS) ** inv_temp + (rest + _EPS) ** inv_temp)


def _probability_domain(
    log_probs: Tensor, keys: np.ndarray, num_samples: int, inv_temp: float
) -> Tensor | None:
    """The recurrence on the probabilities, or ``None`` when a row sum
    falls under ``_SUM_FLOOR`` (the caller then takes the log domain)."""
    shape = keys.shape
    dtype = keys.dtype
    floor = _SUM_FLOOR[dtype]
    bound = _saturation_bound(inv_temp)
    one = dtype.type(1.0 + _EPS)
    # Per-step selection probabilities, kept for the reverse sweep;
    # ``masked[j]`` records whether step j applied the saturation rule.
    probs = np.empty((num_samples, *shape), dtype=dtype)
    masked = []

    # Eq. 5 at j = 0: max-shifted softmax of the tempered keys.
    p = np.multiply(keys, inv_temp, out=probs[0])
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    out_data = p.copy()
    weight = np.empty(shape, dtype=dtype)
    for j in range(num_samples - 1):
        p = probs[j]
        np.subtract(one, p, out=weight)
        q = np.multiply(p, _power(weight, inv_temp), out=probs[j + 1])
        s = q.sum(axis=1)
        saturable = bool(s.min() <= bound)
        if saturable:
            np.copyto(q, 0, where=p > _SATURATION)
            s = q.sum(axis=1)
        masked.append(saturable)
        if not s.min() >= floor:  # also catches NaN
            return None
        q /= s[:, None]
        out_data += q

    def backward(grad: np.ndarray) -> None:
        if not log_probs.requires_grad:
            return
        # Reverse sweep over the keys (module docstring).  ``gr`` carries
        # τ·dL/dr_j; the last step has no suppression path.
        p = probs[-1]
        gr = np.subtract(grad, np.einsum("kv,kv->k", grad, p)[:, None], dtype=dtype)
        gr *= p
        gp = np.empty(shape, dtype=dtype)
        for j in range(num_samples - 2, -1, -1):
            p = probs[j]
            np.subtract(one, p, out=gp)
            if masked[j]:
                # −1/∞ = 0 for saturated words, with no divide by zero
                # where a float32 p rounds to 1.
                np.copyto(gp, np.inf, where=p > _SATURATION)
            np.divide(-inv_temp, gp, out=gp)
            gp *= gr
            gp += grad
            gp -= np.einsum("kv,kv->k", gp, p)[:, None]
            gp *= p
            gr += gp
        gr *= inv_temp
        log_probs._accumulate(gr)

    return Tensor._make(out_data, (log_probs,), backward)


def _log_domain(
    log_probs: Tensor, r: np.ndarray, num_samples: int, inv_temp: float
) -> Tensor:
    """The recurrence on the keys ``r`` (consumed), Eqs. 4-5 as written.

    Both sweeps allocate nothing per step: each step's softmax is written
    straight into its slot of the kept probabilities, the suppression and
    the reverse sweep's terms go through a few preallocated ``(K, V)``
    work buffers and one reused boolean saturation mask, and the last
    step's suppression — which no later step reads — is skipped.
    """
    shape = r.shape
    dtype = r.dtype
    knockout = dtype.type(_KNOCKOUT)

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

"""Relaxed Gumbel top-k subset sampler (Eqs. 3-5)."""

import numpy as np
import pytest

from repro.core import (
    relaxed_topk_sample,
    sample_gumbel,
    subset_sampling,
)
from repro.errors import ConfigError
from repro.tensor import Tensor, gradcheck, softmax
from repro.tensor.tensor import as_tensor
from tests.core._composed_sampler import relaxed_topk_sample_composed


def _log_probs(rng, k=3, v=12):
    beta = rng.dirichlet(np.ones(v) * 0.3, size=k)
    return np.log(beta + 1e-12)


class TestRelaxedSample:
    def test_rows_sum_to_v(self):
        rng = np.random.default_rng(0)
        y = relaxed_topk_sample(Tensor(_log_probs(rng)), 4, 0.5, rng=rng)
        np.testing.assert_allclose(y.data.sum(axis=1), np.full(3, 4.0), atol=1e-8)

    def test_entries_nonnegative_and_bounded_at_low_temperature(self):
        # The relaxation can overshoot 1 per entry at moderate temperature
        # (two consecutive rounds splitting near-tied keys); at low
        # temperature with well-separated keys it is a proper indicator.
        # Seed 68 gives a key gap >= 0.28 among each row's top-5 keys.
        rng = np.random.default_rng(1)
        y_warm = relaxed_topk_sample(Tensor(_log_probs(rng)), 5, 0.5, rng=rng).data
        assert (y_warm >= -1e-9).all()
        rng = np.random.default_rng(68)
        log_probs = _log_probs(rng)
        noise = sample_gumbel(log_probs.shape, rng)
        y_cold = relaxed_topk_sample(
            Tensor(log_probs), 4, 1e-3, gumbel_noise=noise
        ).data
        assert (y_cold <= 1.0 + 1e-6).all()

    def test_low_temperature_approaches_hard_topk(self):
        # Same tie-free seed as above: the relaxation must coincide with
        # the exact Gumbel-top-k sample under the same noise.
        rng = np.random.default_rng(68)
        log_probs = _log_probs(rng)
        noise = sample_gumbel(log_probs.shape, rng)
        soft = relaxed_topk_sample(
            Tensor(log_probs), 4, temperature=1e-3, gumbel_noise=noise
        ).data
        hard = np.argsort(-(log_probs + noise), axis=1)[:, :4]
        for k in range(log_probs.shape[0]):
            np.testing.assert_allclose(np.sort(np.argsort(-soft[k])[:4]), np.sort(hard[k]))
            # soft weights on the selected set are ~1
            assert soft[k, hard[k]].min() > 0.99

    def test_differentiable_through_sampler(self):
        rng = np.random.default_rng(3)
        noise = sample_gumbel((2, 6), rng)
        beta_logits = rng.normal(size=(2, 6))

        def f(logits):
            log_beta = (softmax(logits, axis=1) + 1e-12).log()
            y = relaxed_topk_sample(log_beta, 3, 0.7, gumbel_noise=noise)
            return (y * np.arange(6.0)).sum()

        assert gradcheck(f, [beta_logits], atol=1e-4, rtol=1e-3)

    def test_requires_noise_or_rng(self):
        with pytest.raises(ConfigError):
            relaxed_topk_sample(Tensor(np.zeros((2, 4))), 2, 0.5)

    def test_validation(self):
        rng = np.random.default_rng(0)
        log_probs = Tensor(np.zeros((2, 4)))
        with pytest.raises(ConfigError):
            relaxed_topk_sample(log_probs, 0, 0.5, rng=rng)
        with pytest.raises(ConfigError):
            relaxed_topk_sample(log_probs, 5, 0.5, rng=rng)
        with pytest.raises(ConfigError):
            relaxed_topk_sample(log_probs, 2, 0.0, rng=rng)


class TestGumbelNoise:
    def test_distribution_moments(self):
        rng = np.random.default_rng(6)
        g = sample_gumbel((100_000,), rng)
        # Gumbel(0,1): mean = Euler-Mascheroni, var = pi^2/6
        assert abs(g.mean() - 0.5772) < 0.02
        assert abs(g.var() - np.pi**2 / 6) < 0.05


def _log_domain_sample(log_probs, num_samples, temperature, gumbel_noise):
    """The log-domain fallback body alone, with the sampler's signature."""
    log_probs = as_tensor(log_probs)
    keys = log_probs.data + np.asarray(gumbel_noise).astype(
        log_probs.data.dtype, copy=False
    )
    return subset_sampling._log_domain(
        log_probs, keys, num_samples, 1.0 / temperature
    )


def _fallbacks():
    return subset_sampling.sampler_stats()["log_domain_fallbacks"]


class TestFusedMatchesComposed:
    """The single-node sampler against the composed reference: its
    log-domain fallback bit for bit in samples, its probability domain to
    1e-8 in float64."""

    def _pair(self, seed, k=5, v=30, num=6, temperature=0.5, scale=1.0,
              sampler=relaxed_topk_sample):
        rng = np.random.default_rng(seed)
        log_probs = _log_probs(rng, k=k, v=v) * scale
        noise = sample_gumbel(log_probs.shape, rng)
        fused_in = Tensor(log_probs.copy(), requires_grad=True)
        composed_in = Tensor(log_probs.copy(), requires_grad=True)
        fused_out = sampler(fused_in, num, temperature, gumbel_noise=noise)
        composed_out = relaxed_topk_sample_composed(
            composed_in, num, temperature, gumbel_noise=noise
        )
        return fused_in, fused_out, composed_in, composed_out

    @pytest.mark.parametrize("temperature", [0.1, 0.5, 2.0])
    def test_forward_equivalent(self, temperature):
        # Same ufuncs in the same order: the fallback's samples are
        # bitwise the composed ones.
        _, fused_out, _, composed_out = self._pair(
            0, temperature=temperature, sampler=_log_domain_sample
        )
        np.testing.assert_array_equal(fused_out.data, composed_out.data)

    @pytest.mark.parametrize("temperature", [0.1, 0.5, 2.0])
    def test_backward_equivalent(self, temperature):
        fused_in, fused_out, composed_in, composed_out = self._pair(
            1, temperature=temperature
        )
        rng = np.random.default_rng(9)
        upstream = rng.normal(size=fused_out.shape)
        fused_out.backward(upstream)
        composed_out.backward(upstream)
        np.testing.assert_allclose(
            fused_in.grad, composed_in.grad, atol=1e-8, rtol=0
        )

    def test_equivalent_in_the_saturated_regime(self):
        # Tiny temperature saturates p -> 1: the knock-out branch (zero
        # gradient) must engage identically on both paths.
        fused_in, fused_out, composed_in, composed_out = self._pair(
            2, temperature=0.01, scale=5.0, num=3, sampler=_log_domain_sample
        )
        np.testing.assert_array_equal(fused_out.data, composed_out.data)
        fused_out.backward(np.ones(fused_out.shape))
        composed_out.backward(np.ones(composed_out.shape))
        np.testing.assert_allclose(
            fused_in.grad, composed_in.grad, atol=1e-8, rtol=0
        )

    def test_fused_gradcheck(self):
        rng = np.random.default_rng(3)
        noise = sample_gumbel((2, 6), rng)
        beta_logits = rng.normal(size=(2, 6))

        def f(logits):
            log_beta = (softmax(logits, axis=1) + 1e-12).log()
            y = relaxed_topk_sample(log_beta, 3, 0.7, gumbel_noise=noise)
            return (y * np.arange(6.0)).sum()

        assert gradcheck(f, [beta_logits], atol=1e-4, rtol=1e-3)

    def test_fused_is_one_graph_node(self):
        rng = np.random.default_rng(4)
        log_probs = Tensor(_log_probs(rng), requires_grad=True)
        noise = sample_gumbel(log_probs.shape, rng)
        out = relaxed_topk_sample(log_probs, 4, 0.5, gumbel_noise=noise)
        assert out._parents == (log_probs,)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(5)
        log_probs = Tensor(
            _log_probs(rng).astype(np.float32), requires_grad=True
        )
        noise = sample_gumbel(log_probs.shape, rng)
        out = relaxed_topk_sample(log_probs, 4, 0.5, gumbel_noise=noise)
        assert out.data.dtype == np.float32
        out.backward(np.ones(out.shape, dtype=np.float32))
        assert log_probs.grad.dtype == np.float32


def _run(sampler, log_probs, noise, num, temperature, upstream):
    x = Tensor(log_probs.copy(), requires_grad=True)
    with np.errstate(all="ignore"):
        y = sampler(x, num, temperature, gumbel_noise=noise)
        y.backward(upstream)
    return y.data, x.grad


class TestProbabilityDomain:
    """The recurrence on the probabilities: the composed reference in
    float64, the log domain's own error in float32, finite differences."""

    CASES = [
        # (seed, K, V, v, temperature, scale)
        (0, 5, 30, 6, 0.5, 1.0),
        (1, 1, 12, 1, 0.5, 1.0),      # one draw: the softmax alone
        (2, 7, 40, 10, 0.3, 1.0),     # 1/τ not an integer: np.power
        (3, 6, 50, 8, 1.0, 1.0),      # 1/τ = 1: no power at all
        (4, 6, 50, 8, 2.0, 1.0),
        (5, 4, 25, 3, 0.5, 5.0),      # saturated: w = 0 engages
        (6, 7, 40, 10, 0.2, 3.0),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_float64_matches_the_composed_reference(self, case):
        seed, k, v, num, temperature, scale = case
        rng = np.random.default_rng(seed)
        log_probs = _log_probs(rng, k=k, v=v) * scale
        noise = sample_gumbel(log_probs.shape, rng)
        upstream = rng.normal(size=log_probs.shape)
        before = _fallbacks()
        y, grad = _run(
            relaxed_topk_sample, log_probs, noise, num, temperature, upstream
        )
        assert _fallbacks() == before
        y_ref, grad_ref = _run(
            relaxed_topk_sample_composed, log_probs, noise, num, temperature, upstream
        )
        np.testing.assert_allclose(y, y_ref, atol=1e-8, rtol=0)
        np.testing.assert_allclose(grad, grad_ref, atol=1e-8, rtol=0)
        if scale == 5.0:
            assert (y > subset_sampling._SATURATION).any()

    def test_float32_error_within_twice_the_log_domain(self):
        # Root-mean-square error against the float64 composed reference,
        # pooled over draws, per (τ, β concentration).
        for concentration in (1.0, 0.05, 0.005):
            for temperature in (0.1, 0.2, 0.3, 0.5, 1.0):
                errors = np.zeros((2, 2))
                for seed in range(4):
                    rng = np.random.default_rng(seed)
                    beta = rng.dirichlet(np.full(200, concentration), size=20)
                    log_probs = np.log(beta + 1e-12)
                    noise = sample_gumbel(log_probs.shape, rng)
                    upstream = rng.normal(size=log_probs.shape)
                    reference = _run(
                        relaxed_topk_sample_composed, log_probs, noise, 10,
                        temperature, upstream,
                    )
                    for row, sampler in enumerate(
                        (relaxed_topk_sample, _log_domain_sample)
                    ):
                        got = _run(
                            sampler, log_probs.astype(np.float32), noise, 10,
                            temperature, upstream.astype(np.float32),
                        )
                        for col in range(2):
                            diff = got[col].astype(np.float64) - reference[col]
                            errors[row, col] += (diff**2).sum()
                fast, log_domain = np.sqrt(errors)
                assert (fast <= 2.0 * log_domain).all(), (
                    concentration, temperature, fast, log_domain,
                )

    def test_saturated_float32_raises_no_floating_point_error(self):
        # Peaked β at τ = 0.3 rounds some float32 p_j to exactly 1.
        rng = np.random.default_rng(0)
        beta = rng.dirichlet(np.full(504, 0.05), size=50)
        log_probs = np.log(beta + 1e-12).astype(np.float32)
        noise = sample_gumbel(log_probs.shape, rng)
        x = Tensor(log_probs, requires_grad=True)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            y = relaxed_topk_sample(x, 10, 0.3, gumbel_noise=noise)
            y.backward(np.ones(y.shape, dtype=np.float32))
        assert np.isfinite(x.grad).all()

    @pytest.mark.parametrize("temperature", [0.3, 0.5, 1.0])
    def test_gradcheck(self, temperature):
        rng = np.random.default_rng(7)
        noise = sample_gumbel((3, 8), rng)
        beta_logits = rng.normal(size=(3, 8))

        def f(logits):
            log_beta = (softmax(logits, axis=1) + 1e-12).log()
            y = relaxed_topk_sample(log_beta, 4, temperature, gumbel_noise=noise)
            return (y * np.arange(8.0)).sum()

        before = _fallbacks()
        assert gradcheck(f, [beta_logits], atol=1e-4, rtol=1e-3)
        assert _fallbacks() == before


class TestLogDomainFallback:
    """Where the surviving mass underflows, the whole call reruns through
    the log-domain body, bit for bit."""

    def _peaked(self, seed, dtype, concentration=0.005):
        rng = np.random.default_rng(seed)
        beta = rng.dirichlet(np.full(504, concentration), size=50)
        log_probs = np.log(beta + 1e-12)
        noise = sample_gumbel(log_probs.shape, rng)
        upstream = rng.normal(size=log_probs.shape)
        return log_probs.astype(dtype), noise, upstream.astype(dtype)

    def test_peaked_float32_at_low_temperature_takes_the_fallback(self):
        log_probs, noise, upstream = self._peaked(0, np.float32)
        before = _fallbacks()
        y, grad = _run(relaxed_topk_sample, log_probs, noise, 10, 0.1, upstream)
        assert _fallbacks() == before + 1
        y_log, grad_log = _run(
            _log_domain_sample, log_probs, noise, 10, 0.1, upstream
        )
        assert y.tobytes() == y_log.tobytes()
        assert grad.tobytes() == grad_log.tobytes()
        # So its error against the float64 reference is the log-domain
        # kernel's own float32 error.
        y_ref, _ = _run(
            relaxed_topk_sample_composed, log_probs.astype(np.float64), noise,
            10, 0.1, upstream.astype(np.float64),
        )
        assert np.abs(y - y_ref).max() < 1e-3

    def test_no_fallback_at_the_training_shape(self, monkeypatch):
        calls = []
        log_domain = subset_sampling._log_domain

        def spy(*args):
            calls.append(args[2])
            return log_domain(*args)

        monkeypatch.setattr(subset_sampling, "_log_domain", spy)
        concentrations = (1.0, 0.3, 0.05, 0.005)
        for seed in range(50):
            log_probs, noise, _ = self._peaked(
                seed, np.float32, concentrations[seed % 4]
            )
            relaxed_topk_sample(Tensor(log_probs), 10, 0.5, gumbel_noise=noise)
        assert calls == []
        relaxed_topk_sample(Tensor(log_probs), 10, 1e-3, gumbel_noise=noise)
        assert calls == [10]

    def test_counter_counts_calls_and_fallbacks(self):
        rng = np.random.default_rng(8)
        log_probs = Tensor(_log_probs(rng))
        subset_sampling.reset_sampler_stats()
        assert subset_sampling.sampler_stats() == {
            "calls": 0, "log_domain_fallbacks": 0,
        }
        relaxed_topk_sample(log_probs, 4, 0.5, rng=rng)
        relaxed_topk_sample(log_probs, 4, 1e-3, rng=rng)
        assert subset_sampling.sampler_stats() == {
            "calls": 2, "log_domain_fallbacks": 1,
        }


class TestInPlaceKernelIsBitwise:
    """The log-domain body and the in-place Gumbel draw against the
    allocating forms they replaced (kept verbatim in ``_legacy_sampler``)."""

    CASES = [
        # (seed, K, V, v, temperature, scale)
        (0, 5, 30, 6, 0.5, 1.0),
        (1, 1, 12, 1, 0.5, 1.0),      # one topic, one draw: no suppression
        (2, 7, 40, 10, 0.1, 1.0),
        (3, 4, 25, 3, 0.01, 5.0),     # saturated: the knock-out engages
        (4, 3, 12, 4, 1e-3, 1.0),
        (5, 6, 50, 8, 2.0, 1.0),
    ]

    def _inputs(self, seed, k, v, scale, dtype):
        rng = np.random.default_rng(seed)
        log_probs = (_log_probs(rng, k=k, v=v) * scale).astype(dtype)
        noise = sample_gumbel(log_probs.shape, rng)
        upstream = rng.normal(size=log_probs.shape).astype(dtype)
        return log_probs, noise, upstream

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", CASES)
    def test_samples_and_gradients_equal_the_allocating_form(self, case, dtype):
        from tests.core._legacy_sampler import legacy_relaxed_topk_sample

        seed, k, v, num, temperature, scale = case
        log_probs, noise, upstream = self._inputs(seed, k, v, scale, dtype)
        y_new, g_new = _run(
            _log_domain_sample, log_probs, noise, num, temperature, upstream
        )
        y_old, g_old = _run(
            legacy_relaxed_topk_sample, log_probs, noise, num, temperature, upstream
        )
        assert y_new.dtype == y_old.dtype == dtype
        assert y_new.tobytes() == y_old.tobytes()
        assert g_new.dtype == g_old.dtype == dtype
        assert g_new.tobytes() == g_old.tobytes()

    def test_gumbel_draw_equals_the_allocating_expression(self):
        from tests.core._legacy_sampler import legacy_sample_gumbel

        for shape in [(3, 7), (50, 504), (1,)]:
            new = sample_gumbel(shape, np.random.default_rng(11))
            old = legacy_sample_gumbel(shape, np.random.default_rng(11))
            assert new.tobytes() == old.tobytes()

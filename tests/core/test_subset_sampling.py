"""Relaxed Gumbel top-k subset sampler (Eqs. 3-5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import hard_topk_sample, relaxed_topk_sample, sample_gumbel
from repro.errors import ConfigError
from repro.tensor import Tensor, gradcheck, softmax


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
        hard = hard_topk_sample(log_probs, 4, gumbel_noise=noise)
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


class TestHardSample:
    def test_no_replacement(self):
        rng = np.random.default_rng(4)
        samples = hard_topk_sample(_log_probs(rng, k=5, v=20), 8, rng=rng)
        for row in samples:
            assert len(set(row.tolist())) == 8

    def test_biased_toward_high_probability(self):
        beta = np.array([[0.70, 0.25, 0.02, 0.01, 0.01, 0.01]])
        rng = np.random.default_rng(5)
        hits = 0
        trials = 300
        for _ in range(trials):
            sample = hard_topk_sample(np.log(beta), 2, rng=rng)[0]
            hits += int(0 in sample)
        assert hits / trials > 0.9

    def test_requires_noise_or_rng(self):
        with pytest.raises(ConfigError):
            hard_topk_sample(np.zeros((1, 4)), 2)


class TestGumbelNoise:
    def test_distribution_moments(self):
        rng = np.random.default_rng(6)
        g = sample_gumbel((100_000,), rng)
        # Gumbel(0,1): mean = Euler-Mascheroni, var = pi^2/6
        assert abs(g.mean() - 0.5772) < 0.02
        assert abs(g.var() - np.pi**2 / 6) < 0.05


@settings(max_examples=20, deadline=None)
@given(
    v=st.integers(min_value=2, max_value=15),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_relaxed_sample_is_valid_soft_subset(v, k, seed):
    """For any (topics, vocab, v) the relaxed sample stays a soft v-subset."""
    rng = np.random.default_rng(seed)
    num = min(k + 1, v)
    log_probs = np.log(rng.dirichlet(np.ones(v), size=2) + 1e-12)
    y = relaxed_topk_sample(Tensor(log_probs), num, 0.5, rng=rng).data
    np.testing.assert_allclose(y.sum(axis=1), np.full(2, float(num)), atol=1e-6)
    assert (y >= -1e-9).all()


class TestFusedMatchesComposed:
    """The fused single-node sampler against the composed reference."""

    def _pair(self, seed, k=5, v=30, num=6, temperature=0.5, scale=1.0):
        from repro.core.subset_sampling import relaxed_topk_sample_composed

        rng = np.random.default_rng(seed)
        log_probs = _log_probs(rng, k=k, v=v) * scale
        noise = sample_gumbel(log_probs.shape, rng)
        fused_in = Tensor(log_probs.copy(), requires_grad=True)
        composed_in = Tensor(log_probs.copy(), requires_grad=True)
        fused_out = relaxed_topk_sample(
            fused_in, num, temperature, gumbel_noise=noise
        )
        composed_out = relaxed_topk_sample_composed(
            composed_in, num, temperature, gumbel_noise=noise
        )
        return fused_in, fused_out, composed_in, composed_out

    @pytest.mark.parametrize("temperature", [0.1, 0.5, 2.0])
    def test_forward_equivalent(self, temperature):
        # Same ufuncs in the same order: the samples are bitwise equal.
        _, fused_out, _, composed_out = self._pair(0, temperature=temperature)
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
            2, temperature=0.01, scale=5.0, num=3
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


class TestInPlaceKernelIsBitwise:
    """The in-place sampler and Gumbel draw against the allocating forms
    they replaced (kept verbatim in ``_legacy_sampler``)."""

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

    def _run(self, fn, log_probs, noise, num, temperature, upstream):
        x = Tensor(log_probs.copy(), requires_grad=True)
        with np.errstate(all="ignore"):
            y = fn(x, num, temperature, gumbel_noise=noise)
            y.backward(upstream)
        return y.data, x.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", CASES)
    def test_samples_and_gradients_equal_the_allocating_form(self, case, dtype):
        from tests.core._legacy_sampler import legacy_relaxed_topk_sample

        seed, k, v, num, temperature, scale = case
        log_probs, noise, upstream = self._inputs(seed, k, v, scale, dtype)
        y_new, g_new = self._run(
            relaxed_topk_sample, log_probs, noise, num, temperature, upstream
        )
        y_old, g_old = self._run(
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

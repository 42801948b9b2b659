"""Optimizer update rules and convergence behaviour."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn import Adam, Parameter, SGD, clip_grad_norm


def _param(values) -> Parameter:
    return Parameter(np.array(values, dtype=np.float64))


class TestSGD:
    def test_plain_step(self):
        p = _param([1.0, 2.0])
        p.grad = np.array([0.5, -0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_momentum_accumulates(self):
        p = _param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # velocity = 1 -> p = -1
        p.grad = np.array([1.0])
        opt.step()  # velocity = 1.9 -> p = -2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = _param([10.0])
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [10.0 - 0.1 * 0.5 * 10.0])

    def test_skips_gradless_params(self):
        p = _param([1.0])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # With bias correction the first Adam step is ~lr in magnitude.
        p = _param([0.0])
        p.grad = np.array([123.0])
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01], rtol=1e-6)

    def test_matches_reference_two_steps(self):
        # Hand-rolled reference implementation for two updates.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        grads = [np.array([0.3]), np.array([-0.2])]
        x = np.array([1.0])
        m = v = np.zeros(1)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        p = _param([1.0])
        opt = Adam([p], lr=lr)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        np.testing.assert_allclose(p.data, x, rtol=1e-10)

    def test_weight_decay_applied(self):
        p = _param([5.0])
        p.grad = np.array([0.0])
        Adam([p], lr=0.1, weight_decay=1.0).step()
        assert p.data[0] < 5.0

    def test_invalid_betas(self):
        with pytest.raises(ConfigError):
            Adam([_param([1.0])], betas=(1.0, 0.999))


class TestOptimizerBase:
    def test_requires_parameters(self):
        with pytest.raises(ConfigError):
            SGD([], lr=0.1)

    def test_requires_positive_lr(self):
        with pytest.raises(ConfigError):
            SGD([_param([1.0])], lr=0.0)

    def test_zero_grad(self):
        p = _param([1.0])
        p.grad = np.ones(1)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = _param([1.0])
        p.grad = np.array([3.0])
        norm = clip_grad_norm([p], max_norm=10.0)
        assert norm == 3.0
        np.testing.assert_allclose(p.grad, [3.0])

    def test_clips_above_threshold(self):
        a, b = _param([0.0]), _param([0.0])
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        norm = clip_grad_norm([a, b], max_norm=1.0)
        assert norm == 5.0
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        np.testing.assert_allclose(total, 1.0)


class TestStateDict:
    @pytest.mark.parametrize(
        "make_opt",
        [
            lambda ps: SGD(ps, lr=0.05, momentum=0.9),
            lambda ps: Adam(ps, lr=0.2),
        ],
    )
    def test_restored_optimizer_continues_bitwise_identically(self, make_opt):
        def run(steps, resume_at=None):
            rng = np.random.default_rng(0)
            p = _param(np.zeros(4))
            opt = make_opt([p])
            snapshot = None
            for step in range(steps):
                if step == resume_at:
                    snapshot = (p.data.copy(), opt.state_dict())
                p.grad = rng.standard_normal(4)
                opt.step()
            return p.data.copy(), opt, snapshot

        full, _, _ = run(10)
        _, _, (param_at_5, state_at_5) = run(10, resume_at=5)

        # rebuild from the snapshot and replay the last 5 steps
        rng = np.random.default_rng(0)
        for _ in range(5):
            rng.standard_normal(4)
        p = _param(param_at_5)
        opt = make_opt([p])
        opt.load_state_dict(state_at_5)
        for _ in range(5):
            p.grad = rng.standard_normal(4)
            opt.step()
        np.testing.assert_array_equal(p.data, full)

    def test_roundtrip_restores_lr_and_step_count(self):
        p = _param([1.0])
        opt = SGD([p], lr=0.3)
        p.grad = np.ones(1)
        opt.step()
        state = opt.state_dict()

        fresh = SGD([_param([1.0])], lr=0.1)
        fresh.load_state_dict(state)
        assert fresh.lr == 0.3
        assert fresh.step_count == 1

    def test_state_dict_values_are_copies(self):
        p = _param([1.0])
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.ones(1)
        opt.step()
        state = opt.state_dict()
        state["velocity.0"][:] = 99.0
        assert opt._velocity[0][0] != 99.0

    def test_missing_key_rejected(self):
        opt = Adam([_param([1.0])], lr=0.1)
        state = opt.state_dict()
        del state["m.0"]
        with pytest.raises(ConfigError):
            Adam([_param([1.0])], lr=0.1).load_state_dict(state)

    def test_missing_scalar_rejected(self):
        opt = SGD([_param([1.0])], lr=0.1)
        state = opt.state_dict()
        del state["step_count"]
        with pytest.raises(ConfigError):
            SGD([_param([1.0])], lr=0.1).load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        opt = SGD([_param([1.0, 2.0])], lr=0.1)
        state = opt.state_dict()
        with pytest.raises(ConfigError):
            SGD([_param([1.0, 2.0, 3.0])], lr=0.1).load_state_dict(state)


class TestConvergence:
    @pytest.mark.parametrize(
        "make_opt",
        [
            lambda ps: SGD(ps, lr=0.1),
            lambda ps: SGD(ps, lr=0.05, momentum=0.9),
            lambda ps: Adam(ps, lr=0.2),
        ],
    )
    def test_minimizes_quadratic(self, make_opt):
        from repro.tensor import Tensor

        target = np.array([3.0, -2.0, 1.0])
        p = Parameter(np.zeros(3))
        opt = make_opt([p])
        for _ in range(200):
            opt.zero_grad()
            diff = p - Tensor(target)
            (diff * diff).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-2)

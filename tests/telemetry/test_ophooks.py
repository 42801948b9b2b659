"""Op-level profiling: recording, zero overhead off, gradient identity."""

import numpy as np
import pytest

from repro.telemetry import MetricsRegistry, is_profiling, profile_ops
from repro.telemetry.ophooks import BACKWARD_PASS_KEY
from repro.tensor import PROFILED_MODULE_OPS, PROFILED_TENSOR_OPS, Tensor
from repro.tensor import functional as F
from repro.tensor import fused
from repro.tensor import tensor as tensor_module


def _forward(x, y):
    """A small graph touching tensor ops, module ops and functional ops."""
    z = (x @ y).exp().sum() + F.softmax(x, axis=-1).mean()
    w = tensor_module.concatenate([x, x], axis=0).sum()
    return z + w


class TestRecording:
    def test_ops_timed_and_counted(self):
        registry = MetricsRegistry()
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        y = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
        with profile_ops(registry):
            assert is_profiling()
            loss = _forward(x, y)
            loss.backward()

        for op in ("matmul", "exp", "sum", "add", "softmax", "concatenate"):
            assert registry.timers[f"op/{op}"].count >= 1, op
            assert registry.counters[f"op/{op}.calls"].value >= 1, op
            assert registry.timers[f"op/{op}"].total_seconds >= 0.0

    def test_bytes_counted_for_outputs(self):
        registry = MetricsRegistry()
        x = Tensor(np.ones((5, 7)), requires_grad=True)
        y = Tensor(np.ones((7, 3)), requires_grad=True)
        with profile_ops(registry):
            (x @ y).sum().backward()
        # one (5, 3) float64 output
        assert registry.counters["op/matmul.bytes"].value == 5 * 3 * 8

    def test_backward_closures_timed(self):
        registry = MetricsRegistry()
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with profile_ops(registry):
            (x * 2.0).sum().backward()
        assert registry.timers["op/mul.backward"].count == 1
        assert registry.timers["op/sum.backward"].count == 1
        assert registry.timers[BACKWARD_PASS_KEY].count == 1
        assert registry.counters[BACKWARD_PASS_KEY + ".calls"].value == 1

    def test_fresh_registry_created_when_omitted(self):
        with profile_ops() as registry:
            (Tensor(np.ones(3), requires_grad=True) * 2.0).sum().backward()
        assert registry.timers["op/mul"].count == 1


class TestZeroOverheadWhenDisabled:
    def test_original_attributes_restored(self):
        originals = {name: getattr(Tensor, name) for name in PROFILED_TENSOR_OPS}
        originals["backward"] = Tensor.backward
        module_originals = {
            name: getattr(tensor_module, name) for name in PROFILED_MODULE_OPS
        }
        functional_originals = {
            name: getattr(F, name) for name in F.PROFILED_FUNCTIONAL_OPS
        }
        with profile_ops():
            # inside the block every op is a different (wrapped) object
            assert Tensor.__matmul__ is not originals["__matmul__"]
        for name, fn in originals.items():
            assert getattr(Tensor, name) is fn, name
        for name, fn in module_originals.items():
            assert getattr(tensor_module, name) is fn, name
        for name, fn in functional_originals.items():
            assert getattr(F, name) is fn, name

    def test_no_hooks_fire_outside_the_block(self):
        registry = MetricsRegistry()
        with profile_ops(registry):
            pass
        assert not is_profiling()
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        (x @ x).exp().sum().backward()
        # nothing ran through a hook: the registry stayed empty
        assert registry.timers == {}
        assert registry.counters == {}

    def test_restored_after_exception(self):
        original = Tensor.__matmul__
        with pytest.raises(RuntimeError):
            with profile_ops():
                raise RuntimeError("boom")
        assert Tensor.__matmul__ is original
        assert not is_profiling()

    def test_nested_blocks_record_into_both_registries(self):
        outer = MetricsRegistry()
        inner = MetricsRegistry()
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with profile_ops(outer):
            (x * 2.0).sum().backward()
            with profile_ops(inner):
                assert is_profiling()
                (x * 3.0).sum().backward()
            # inner exit must not tear the shims down for the outer block
            (x * 4.0).sum().backward()
        assert not is_profiling()
        # outer saw all three steps, inner only the one inside its block
        assert outer.counters["op/mul.calls"].value == 3
        assert inner.counters["op/mul.calls"].value == 1
        assert inner.timers["op/mul.backward"].count == 1
        original = Tensor.__mul__
        assert not hasattr(original, "__profiled_original__")

    def test_nested_blocks_do_not_double_count(self):
        """One call through a shim records once per registry, not twice."""
        registry = MetricsRegistry()
        with profile_ops(registry), profile_ops():
            (Tensor(np.ones(4), requires_grad=True) * 2.0).sum().backward()
        assert registry.counters["op/mul.calls"].value == 1
        assert registry.timers["op/mul"].count == 1


class TestNumericalTransparency:
    def test_values_and_gradients_bitwise_identical(self):
        """Hooks must observe, never perturb — forward AND backward."""

        def run():
            x = Tensor(
                np.random.default_rng(7).normal(size=(6, 5)), requires_grad=True
            )
            y = Tensor(
                np.random.default_rng(8).normal(size=(5, 4)), requires_grad=True
            )
            loss = (
                F.log_softmax(x @ y, axis=-1).sum()
                + F.relu(x).mean()
                + (x * x).sum().sqrt()
            )
            loss.backward()
            return loss.data.copy(), x.grad.copy(), y.grad.copy()

        plain_loss, plain_gx, plain_gy = run()
        with profile_ops():
            hooked_loss, hooked_gx, hooked_gy = run()

        assert np.array_equal(plain_loss, hooked_loss)
        assert np.array_equal(plain_gx, hooked_gx)
        assert np.array_equal(plain_gy, hooked_gy)

    def test_no_grad_path_unaffected(self):
        from repro.tensor import no_grad

        registry = MetricsRegistry()
        with profile_ops(registry), no_grad():
            out = Tensor(np.ones((2, 2))) @ Tensor(np.ones((2, 2)))
        assert out._backward is None
        assert registry.timers["op/matmul"].count == 1


class TestFusedOps:
    def test_fused_kernels_appear_as_single_rows(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        b = Tensor(np.zeros(5), requires_grad=True)
        bow = rng.integers(0, 4, size=(4, 5)).astype(float)
        with profile_ops(registry):
            loss = fused.log_softmax_nll(fused.linear(x, w, b), bow)
            loss.backward()
        for op in ("linear", "log_softmax_nll"):
            assert registry.counters[f"op/{op}.calls"].value == 1, op
            assert registry.timers[f"op/{op}"].count == 1, op
            assert registry.timers[f"op/{op}.backward"].count == 1, op
        # fused: no primitive matmul/exp rows from these two calls
        assert "op/matmul" not in registry.timers
        assert "op/exp" not in registry.timers

    def test_functional_alias_records_once(self):
        """F.softmax is the fused kernel; a call must record exactly once."""
        assert F.softmax is fused.softmax
        registry = MetricsRegistry()
        with profile_ops(registry):
            F.softmax(Tensor(np.ones((2, 3)), requires_grad=True), axis=1)
            fused.softmax(Tensor(np.ones((2, 3)), requires_grad=True), axis=1)
        assert registry.counters["op/softmax.calls"].value == 2
        assert registry.timers["op/softmax"].count == 2

    def test_fused_attributes_restored(self):
        originals = {name: getattr(fused, name) for name in fused.PROFILED_FUSED_OPS}
        with profile_ops():
            assert fused.softmax is not originals["softmax"]
        for name, fn in originals.items():
            assert getattr(fused, name) is fn, name


class TestContrastiveKernels:
    """The sampler and the contrastive loss report one row each."""

    def _objective(self, rng, v=12):
        from repro.core.similarity import SimilarityKernel
        from repro.objectives import TopicContrastiveObjective

        matrix = rng.uniform(-1, 1, size=(v, v))
        matrix = (matrix + matrix.T) / 2
        kernel = SimilarityKernel("test", matrix, np.exp(matrix / 0.25), 0.25)
        return TopicContrastiveObjective(
            kernel=kernel, rng=np.random.default_rng(0), num_sampled_words=3
        )

    def test_objective_term_is_two_rows_forward_and_backward(self):
        rng = np.random.default_rng(5)
        objective = self._objective(rng)
        beta = Tensor(rng.dirichlet(np.ones(12), size=4), requires_grad=True)
        registry = MetricsRegistry()
        with profile_ops(registry):
            objective.loss(beta).backward()
        for op in ("relaxed_topk_sample", "topic_contrastive_loss"):
            assert registry.counters[f"op/{op}.calls"].value == 1, op
            assert registry.timers[f"op/{op}"].count == 1, op
            assert registry.timers[f"op/{op}.backward"].count == 1, op
        # single nodes: no matmul/softmax rows from inside the term
        assert "op/matmul" not in registry.timers
        assert "op/softmax" not in registry.timers

    def test_core_attributes_restored(self):
        from repro.telemetry.ophooks import PROFILED_CORE_OPS

        originals = [(m, n, getattr(m, n)) for m, n in PROFILED_CORE_OPS]
        with profile_ops():
            assert all(getattr(m, n) is not fn for m, n, fn in originals)
        for module, name, fn in originals:
            assert getattr(module, name) is fn, name

    def test_every_profiled_kernel_has_a_microbench_case(self):
        from repro.telemetry.microbench import run_ops_microbench
        from repro.telemetry.ophooks import PROFILED_CORE_OPS

        registry = run_ops_microbench(repeats=1, dtype="float32")
        names = set(fused.PROFILED_FUSED_OPS) | {n for _, n in PROFILED_CORE_OPS}
        for name in names:
            assert registry.timers[f"op/{name}"].count >= 1, name
            assert registry.timers[f"op/{name}.backward"].count >= 1, name

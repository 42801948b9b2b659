"""The dtype policy: resolution, defaults, construction rules, round-trips.

float64 stays the process default (gradcheck precision); float32 is a
first-class training mode — these tests pin the rules that keep a graph
homogeneous in whichever precision its leaves were created with.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.tensor import (
    SUPPORTED_DTYPES,
    Tensor,
    as_tensor,
    default_dtype,
    get_default_dtype,
    gradcheck,
    resolve_dtype,
    set_default_dtype,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    """No test may leak a dtype switch into the rest of the suite."""
    before = get_default_dtype()
    yield
    set_default_dtype(before)


class TestResolve:
    @pytest.mark.parametrize(
        "spelling",
        ["float32", "FLOAT32", " float32 ", np.float32, np.dtype(np.float32)],
    )
    def test_float32_spellings(self, spelling):
        assert resolve_dtype(spelling) == np.dtype(np.float32)

    def test_float64(self):
        assert resolve_dtype("float64") == np.dtype(np.float64)

    def test_none_is_current_default(self):
        with default_dtype("float32"):
            assert resolve_dtype(None) == np.dtype(np.float32)

    @pytest.mark.parametrize("bad", ["float16", "flaot32", "int32", np.int64])
    def test_unsupported_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            resolve_dtype(bad)

    def test_supported_table(self):
        assert set(SUPPORTED_DTYPES) == {"float32", "float64"}


class TestDefault:
    def test_process_default_is_float64(self):
        if os.environ.get("REPRO_DTYPE"):
            pytest.skip("REPRO_DTYPE overrides the built-in default")
        assert get_default_dtype() == np.dtype(np.float64)

    def test_set_default_dtype(self):
        set_default_dtype("float32")
        assert Tensor([1.0, 2.0]).data.dtype == np.float32

    def test_context_is_scoped_and_nests(self):
        with default_dtype("float32"):
            assert get_default_dtype() == np.dtype(np.float32)
            with default_dtype("float64"):
                assert get_default_dtype() == np.dtype(np.float64)
            assert get_default_dtype() == np.dtype(np.float32)
        assert get_default_dtype() == np.dtype(np.float64)

    def test_context_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with default_dtype("float32"):
                raise RuntimeError("boom")
        assert get_default_dtype() == np.dtype(np.float64)

    def test_env_var_sets_default(self):
        out = subprocess.run(
            [sys.executable, "-c", "import repro.tensor as t; print(t.get_default_dtype())"],
            env={**os.environ, "REPRO_DTYPE": "float32", "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "float32"

    def test_env_var_typo_fails_loudly(self):
        out = subprocess.run(
            [sys.executable, "-c", "import repro.tensor"],
            env={**os.environ, "REPRO_DTYPE": "flaot32", "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert out.returncode != 0
        assert "unsupported dtype" in out.stderr


class TestConstructionRules:
    def test_float_ndarrays_keep_their_dtype(self):
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
        with default_dtype("float32"):
            assert Tensor(np.ones(3, dtype=np.float64)).data.dtype == np.float64

    def test_lists_scalars_and_ints_cast_to_default(self):
        with default_dtype("float32"):
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
            assert Tensor(3).data.dtype == np.float32
            assert Tensor(np.arange(4)).data.dtype == np.float32
            assert as_tensor(0.5).data.dtype == np.float32

    def test_explicit_dtype_wins(self):
        assert Tensor([1.0], dtype="float32").data.dtype == np.float32
        assert Tensor(np.ones(2, dtype=np.float32), dtype="float64").data.dtype == (
            np.float64
        )

    def test_python_scalars_do_not_upcast_float32(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert (x * 0.5).data.dtype == np.float32
        assert (x + 1.0).data.dtype == np.float32
        assert (x**2.0).data.dtype == np.float32

    def test_gradients_adopt_the_tensor_dtype(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        loss = (x * x).sum()
        assert loss.data.dtype == np.float32
        loss.backward()
        assert x.grad.dtype == np.float32

    def test_backward_seed_cast_to_graph_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        x.sum().backward(np.asarray(2.0))  # float64 seed, float32 graph
        assert x.grad.dtype == np.float32

    def test_gradcheck_pinned_to_float64_under_float32(self):
        with default_dtype("float32"):
            assert gradcheck(
                lambda a: (a * a).sum(), [np.random.default_rng(0).normal(size=(3, 2))]
            )


class TestModelAndCheckpointDtypes:
    def _linear(self, seed=0):
        from repro.nn.layers import Linear

        return Linear(4, 3, np.random.default_rng(seed))

    @pytest.mark.parametrize(
        "save_as,load_as", [("float64", "float32"), ("float32", "float64")]
    )
    def test_checkpoint_roundtrips_across_dtypes(self, tmp_path, save_as, load_as):
        from repro.io import load_checkpoint, save_checkpoint

        with default_dtype(save_as):
            source = self._linear(seed=1)
        path = tmp_path / "ck.npz"
        save_checkpoint(source, path)

        with default_dtype(load_as):
            target = self._linear(seed=2)
        load_checkpoint(target, path)
        # restored values match, in the *target's* precision
        assert target.weight.data.dtype == np.dtype(load_as)
        assert target.bias.data.dtype == np.dtype(load_as)
        np.testing.assert_allclose(
            target.weight.data, source.weight.data.astype(load_as), rtol=1e-6
        )

    def test_initializers_follow_the_default(self):
        with default_dtype("float32"):
            layer = self._linear()
        assert layer.weight.data.dtype == np.float32
        assert layer.bias.data.dtype == np.float32

    def test_optimizer_state_stays_in_param_dtype(self):
        from repro.nn.optim import Adam

        with default_dtype("float32"):
            layer = self._linear()
            opt = Adam(list(layer.parameters()), lr=1e-3)
            x = Tensor(np.ones((2, 4), dtype=np.float32))
            layer(x).sum().backward()
            opt.step()
        assert layer.weight.data.dtype == np.float32
        assert all(m.dtype == np.float32 for m in opt._m)
        assert all(v.dtype == np.float32 for v in opt._v)


class TestFloat32Training:
    def test_guarded_contratopic_trains_clean_in_float32(
        self, tiny_corpus, tiny_npmi, tiny_embeddings, fast_config
    ):
        """The acceptance run: float32 + divergence guards, zero faults."""
        from repro.core import ContraTopicConfig, npmi_kernel
        from repro.core.contratopic import ContraTopic
        from repro.models.etm import ETM
        from repro.training.resilience import GuardPolicy
        from repro.training.trainer import RunSpec, Trainer

        with default_dtype("float32"):
            model = ContraTopic(
                ETM(tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors),
                npmi_kernel(tiny_npmi, temperature=0.25),
                ContraTopicConfig(lambda_weight=5.0),
            )
            Trainer(RunSpec(guard=GuardPolicy())).fit(model, tiny_corpus)

        assert all(p.data.dtype == np.float32 for p in model.parameters())
        losses = [epoch["total"] for epoch in model.history]
        assert np.all(np.isfinite(losses))
        # the guards watched the whole run and never had to intervene
        assert sum(e.get("guard_faults", 0.0) for e in model.history) == 0.0
        beta = model.topic_word_matrix()
        assert np.all(np.isfinite(beta))

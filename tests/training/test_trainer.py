"""The training engine: facade equivalence, RunSpec, the batch step."""

import dataclasses

import numpy as np
import pytest

from repro.core import ContraTopic, ContraTopicConfig, npmi_kernel
from repro.errors import ConfigError
from repro.models import ETM, ProdLDA
from repro.tensor.dtypes import default_dtype, get_default_dtype
from repro.training.callbacks import Callback
from repro.training.faults import FaultPlan
from repro.training.resilience import GuardPolicy
from repro.training.trainer import (
    CheckpointSpec,
    RunSpec,
    Trainer,
    TrainState,
)


def _assert_bitwise_equal(a, b):
    assert [e["total"] for e in a.history] == [e["total"] for e in b.history]
    a_state, b_state = a.state_dict(), b.state_dict()
    assert a_state.keys() == b_state.keys()
    for name in a_state:
        np.testing.assert_array_equal(a_state[name], b_state[name])


def _make_contratopic(corpus, embeddings, npmi, config):
    return ContraTopic(
        ETM(corpus.vocab_size, config, embeddings.vectors),
        npmi_kernel(npmi),
        ContraTopicConfig(),
    )


class TestBitwiseFacade:
    """``model.fit`` and ``Trainer(RunSpec()).fit`` must coincide bitwise."""

    def test_etm_history_identical_old_style_vs_trainer(
        self, tiny_corpus, tiny_embeddings, fast_config
    ):
        old = ETM(tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors)
        old.fit(tiny_corpus)

        new = ETM(tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors)
        Trainer(RunSpec()).fit(new, tiny_corpus)
        _assert_bitwise_equal(old, new)

    def test_contratopic_history_identical_old_style_vs_trainer(
        self, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
    ):
        old = _make_contratopic(
            tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
        )
        old.fit(tiny_corpus)

        new = _make_contratopic(
            tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
        )
        Trainer(RunSpec()).fit(new, tiny_corpus)
        _assert_bitwise_equal(old, new)

    def test_fit_returns_model_and_leaves_state_attached(
        self, tiny_corpus, fast_config
    ):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        returned = Trainer().fit(model, tiny_corpus)
        assert returned is model
        assert isinstance(model._trainer, TrainState)
        assert model._trainer.epoch == fast_config.epochs - 1
        assert model.training_state()["epoch"] == fast_config.epochs - 1


class TestCheckpointResumeThroughTrainer:
    def test_spec_checkpoint_and_resume_match_uninterrupted_run(
        self, tiny_corpus, fast_config, tmp_path
    ):
        full = ProdLDA(tiny_corpus.vocab_size, fast_config)
        Trainer(RunSpec()).fit(full, tiny_corpus)

        ckpt_dir = tmp_path / "ckpt"
        interrupted = ProdLDA(
            tiny_corpus.vocab_size, dataclasses.replace(fast_config, epochs=2)
        )
        Trainer(RunSpec(checkpoint=CheckpointSpec(str(ckpt_dir)))).fit(
            interrupted, tiny_corpus
        )

        resumed = ProdLDA(tiny_corpus.vocab_size, fast_config)
        Trainer(RunSpec(resume_from=str(ckpt_dir / "last.npz"))).fit(
            resumed, tiny_corpus
        )
        assert len(resumed.history) == fast_config.epochs
        _assert_bitwise_equal(full, resumed)


class TestRefit:
    def test_a_second_fit_starts_its_history_afresh(
        self, tiny_corpus, fast_config
    ):
        model = ProdLDA(
            tiny_corpus.vocab_size, dataclasses.replace(fast_config, epochs=2)
        )
        model.fit(tiny_corpus)
        seen_at_start = []

        class Probe(Callback):
            def on_fit_start(self, model):
                seen_at_start.append(len(model.history))

        model.fit(tiny_corpus, callbacks=[Probe()])
        # Callbacks (a CheckpointCallback's best value) see no earlier run.
        assert seen_at_start == [0]
        assert [e["epoch"] for e in model.history] == [0.0, 1.0]


class TestGuardThroughTrainer:
    def test_injected_nan_losses_are_skipped_and_counted(
        self, tiny_corpus, fast_config
    ):
        spec = RunSpec(
            guard=GuardPolicy(), faults=FaultPlan(nan_loss_steps=(0, 3))
        )
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        Trainer(spec).fit(model, tiny_corpus)

        state = model._trainer
        assert state.faults is not None
        assert state.faults.counts["nan_loss"] == 2
        assert state.guard.counts["faults"] == 2
        assert state.guard.counts["skipped_batches"] == 2
        assert sum(e.get("guard_faults", 0.0) for e in model.history) == 2.0
        assert np.isfinite(model.history[-1]["total"])


class TestRunSpecRoundTrip:
    def test_unknown_field_is_rejected(self):
        # A field RunSpec does not have fails loudly instead of being
        # silently ignored.
        for name in ("model", "ddp_workers", "bogus"):
            with pytest.raises(TypeError):
                RunSpec(**{name: 1})

    def test_checkpoint_spec_validates(self):
        with pytest.raises(ConfigError):
            CheckpointSpec("")
        with pytest.raises(ConfigError):
            CheckpointSpec("ckpt", every=0)


class TestTrainableContract:
    def test_missing_contract_attributes_fail_loudly(self, tiny_corpus):
        class NotAModel:
            pass

        with pytest.raises(ConfigError, match="loss_on_batch"):
            Trainer().fit(NotAModel(), tiny_corpus)

    def test_vocab_mismatch_is_rejected(self, tiny_corpus, fast_config):
        model = ProdLDA(tiny_corpus.vocab_size + 1, fast_config)
        with pytest.raises(ConfigError, match="vocab"):
            Trainer().fit(model, tiny_corpus)


class TestBatchDtype:
    def test_batches_are_views_in_the_policy_dtype(self, tiny_corpus):
        from repro.data.loaders import BatchIterator

        with default_dtype("float32"):
            batches = BatchIterator(
                tiny_corpus,
                batch_size=64,
                rng=np.random.default_rng(0),
                dtype=get_default_dtype(),
            )
            batch = next(iter(batches))
            assert batch.dtype == np.float32
            # The cast matrix is cached: a second same-dtype request must
            # return the same object, not a fresh copy.
            assert (
                tiny_corpus.bow_matrix(dtype=np.float32)
                is tiny_corpus.bow_matrix(dtype=np.float32)
            )

    def test_float64_default_returns_master_cache(self, tiny_corpus):
        assert tiny_corpus.bow_matrix() is tiny_corpus.bow_matrix(
            dtype=np.float64
        )


class TestTransformModeRestore:
    def test_transform_restores_training_mode(self, tiny_corpus, fast_config):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        model.train()
        model.transform(tiny_corpus)
        assert model.training  # a mid-training transform must not leak eval

        model.eval()
        model.transform(tiny_corpus)
        assert not model.training

"""The standalone training engine: facade equivalence, RunSpec, pipeline."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import ContraTopic, ContraTopicConfig, npmi_kernel
from repro.errors import ConfigError
from repro.models import ETM, ProdLDA
from repro.models.base import NTMConfig
from repro.tensor.dtypes import default_dtype, get_default_dtype
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
    """Old-style ``model.fit`` and the Trainer entry point must coincide."""

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

    def test_per_call_resume_overrides_spec(
        self, tiny_corpus, fast_config, tmp_path
    ):
        ckpt_dir = tmp_path / "ckpt"
        interrupted = ProdLDA(
            tiny_corpus.vocab_size, dataclasses.replace(fast_config, epochs=2)
        )
        Trainer(RunSpec(checkpoint=CheckpointSpec(str(ckpt_dir)))).fit(
            interrupted, tiny_corpus
        )

        resumed = ProdLDA(tiny_corpus.vocab_size, fast_config)
        Trainer().fit(
            resumed, tiny_corpus, resume_from=ckpt_dir / "last.npz"
        )
        full = ProdLDA(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        _assert_bitwise_equal(full, resumed)


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

    def test_guard_spec_matches_old_style_guard_kwarg(
        self, tiny_corpus, fast_config
    ):
        old = ProdLDA(tiny_corpus.vocab_size, fast_config)
        old.fit(tiny_corpus, guard=GuardPolicy())

        new = ProdLDA(tiny_corpus.vocab_size, fast_config)
        Trainer(RunSpec.guarded()).fit(new, tiny_corpus)
        _assert_bitwise_equal(old, new)


class TestRunSpecRoundTrip:
    def _full_spec(self) -> RunSpec:
        return RunSpec(
            model=NTMConfig(num_topics=8, hidden_sizes=(32, 16), epochs=3),
            guard=GuardPolicy(max_faults=7),
            checkpoint=CheckpointSpec("ckpt", every=2, monitor="rec"),
            faults=FaultPlan(
                nan_loss_steps=(1, 2),
                exploding_grad_steps=(3,),
                interrupt_saves=(0,),
                seed=4,
            ),
            resume_from="ckpt/last.npz",
        )

    def test_dict_round_trip_preserves_every_field(self):
        spec = self._full_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_serializable_plain_data(self):
        data = self._full_spec().to_dict()
        assert json.loads(json.dumps(data)) == data
        assert isinstance(data["model"]["hidden_sizes"], list)

    def test_json_round_trip(self):
        spec = self._full_spec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_empty_spec_round_trips(self):
        assert RunSpec.from_dict(RunSpec().to_dict()) == RunSpec()

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec.from_dict({"bogus": 1})
        # A field RunSpec no longer has fails loudly instead of being
        # silently ignored.
        with pytest.raises(ConfigError):
            RunSpec.from_dict({"ddp_workers": 2})

    def test_bad_nested_field_is_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec.from_dict({"guard": {"not_a_policy_field": 1}})

    def test_non_mapping_input_is_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec.from_dict("guard")

    def test_invalid_json_is_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec.from_json("{not json")

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

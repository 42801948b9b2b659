"""Checkpoint/resume: an interrupted run must equal an uninterrupted one."""

import dataclasses

import numpy as np
import pytest

from repro.core import ContraTopic, ContraTopicConfig, npmi_kernel
from repro.io import CheckpointError, save_checkpoint
from repro.models import CLNTM, ETM, ProdLDA, build_model
from repro.training.resilience import CheckpointCallback
from repro.training.trainer import RunSpec, Trainer, capture_training_state


def _assert_bitwise_equal(full, resumed):
    full_hist = [e["total"] for e in full.history]
    resumed_hist = [e["total"] for e in resumed.history]
    assert resumed_hist == full_hist  # exact float equality, not approx
    full_state = full.state_dict()
    resumed_state = resumed.state_dict()
    assert full_state.keys() == resumed_state.keys()
    for name in full_state:
        np.testing.assert_array_equal(full_state[name], resumed_state[name])


class TestBitwiseResume:
    def test_prodlda_resume_matches_uninterrupted_run(
        self, tiny_corpus, fast_config, tmp_path
    ):
        full = ProdLDA(tiny_corpus.vocab_size, fast_config)
        full.fit(tiny_corpus)

        short_config = dataclasses.replace(fast_config, epochs=2)
        interrupted = ProdLDA(tiny_corpus.vocab_size, short_config)
        callback = CheckpointCallback(tmp_path / "ckpt")
        interrupted.fit(tiny_corpus, callbacks=[callback])

        resumed = ProdLDA(tiny_corpus.vocab_size, fast_config)
        Trainer(RunSpec(resume_from=callback.last_path)).fit(resumed, tiny_corpus)
        assert len(resumed.history) == fast_config.epochs
        _assert_bitwise_equal(full, resumed)

    def test_contratopic_resume_restores_every_rng_stream(
        self, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config, tmp_path
    ):
        # ContraTopic adds a Gumbel-noise stream on top of the backbone's
        # dropout/reparameterization stream — the hardest resume case.
        def make(config):
            return ContraTopic(
                ETM(tiny_corpus.vocab_size, config, tiny_embeddings.vectors),
                npmi_kernel(tiny_npmi),
                ContraTopicConfig(),
            )

        full = make(fast_config)
        full.fit(tiny_corpus)

        interrupted = make(dataclasses.replace(fast_config, epochs=2))
        callback = CheckpointCallback(tmp_path / "ckpt")
        interrupted.fit(tiny_corpus, callbacks=[callback])

        resumed = make(fast_config)
        Trainer(RunSpec(resume_from=callback.last_path)).fit(resumed, tiny_corpus)
        _assert_bitwise_equal(full, resumed)

    @pytest.mark.parametrize("name", ["vtmrl", "ntmr", "ecrtm"])
    def test_regularized_baseline_resume_matches_uninterrupted_run(
        self, name, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config, tmp_path
    ):
        # Each carries its regularizer as a stack term; VTMRL's REINFORCE
        # baseline is training state too and must travel in the checkpoint.
        def make(config):
            return build_model(
                name,
                tiny_corpus.vocab_size,
                config,
                word_embeddings=tiny_embeddings.vectors,
                npmi=tiny_npmi,
            )

        full = make(fast_config)
        full.fit(tiny_corpus)

        interrupted = make(dataclasses.replace(fast_config, epochs=2))
        callback = CheckpointCallback(tmp_path / "ckpt")
        interrupted.fit(tiny_corpus, callbacks=[callback])

        resumed = make(fast_config)
        Trainer(RunSpec(resume_from=callback.last_path)).fit(resumed, tiny_corpus)
        _assert_bitwise_equal(full, resumed)

    def test_resume_restores_history_and_epoch_numbering(
        self, tiny_corpus, fast_config, tmp_path
    ):
        short_config = dataclasses.replace(fast_config, epochs=2)
        interrupted = ProdLDA(tiny_corpus.vocab_size, short_config)
        callback = CheckpointCallback(tmp_path / "ckpt")
        interrupted.fit(tiny_corpus, callbacks=[callback])

        resumed = ProdLDA(tiny_corpus.vocab_size, fast_config)
        Trainer(RunSpec(resume_from=callback.last_path)).fit(resumed, tiny_corpus)
        epochs = [e["epoch"] for e in resumed.history]
        assert epochs == [float(i) for i in range(fast_config.epochs)]


class TestResumeValidation:
    def test_parameter_only_checkpoint_is_rejected(
        self, tiny_corpus, fast_config, tmp_path
    ):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        path = tmp_path / "weights_only.npz"
        save_checkpoint(model, path)  # no optimizer / trainer_state

        fresh = ProdLDA(tiny_corpus.vocab_size, fast_config)
        with pytest.raises(CheckpointError):
            Trainer(RunSpec(resume_from=path)).fit(fresh, tiny_corpus)

    def test_unknown_rng_stream_is_rejected(
        self, tiny_corpus, fast_config, tmp_path
    ):
        # A checkpointed stream the resuming model does not declare must
        # fail loudly instead of being silently dropped.
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        callback = CheckpointCallback(tmp_path / "ckpt")
        model.fit(tiny_corpus, callbacks=[callback])

        fresh = ProdLDA(tiny_corpus.vocab_size, fast_config)
        fresh.rng_streams = lambda: {"renamed": fresh._rng}
        with pytest.raises(CheckpointError):
            Trainer(RunSpec(resume_from=callback.last_path)).fit(fresh, tiny_corpus)

    def _rewritten_checkpoint(self, corpus, config, path, edit):
        """A resumable CLNTM checkpoint whose trainer state ``edit`` alters."""
        model = CLNTM(corpus.vocab_size, dataclasses.replace(config, epochs=1))
        model.fit(corpus)
        state = capture_training_state(model)
        edit(state)
        save_checkpoint(
            model, path, optimizer=model._trainer.optimizer, trainer_state=state
        )
        return path

    def test_stale_objective_term_is_rejected(
        self, tiny_corpus, fast_config, tmp_path
    ):
        # e.g. the {"extra": true} flag older releases wrote for every model
        path = self._rewritten_checkpoint(
            tiny_corpus,
            fast_config,
            tmp_path / "stale.npz",
            lambda state: state["objective_terms"].update(extra=True),
        )
        fresh = CLNTM(tiny_corpus.vocab_size, fast_config)
        with pytest.raises(CheckpointError) as info:
            Trainer(RunSpec(resume_from=path)).fit(fresh, tiny_corpus)
        message = str(info.value)
        assert "stale.npz" in message
        assert "['extra']" in message
        assert "its terms: ['clntm']" in message

    def test_pre_stack_checkpoint_is_rejected(
        self, tiny_corpus, fast_config, tmp_path
    ):
        def legacy_flag(state):
            del state["objective_terms"]
            state["extra_loss_enabled"] = True

        path = self._rewritten_checkpoint(
            tiny_corpus, fast_config, tmp_path / "pre_stack.npz", legacy_flag
        )
        fresh = CLNTM(tiny_corpus.vocab_size, fast_config)
        with pytest.raises(CheckpointError) as info:
            Trainer(RunSpec(resume_from=path)).fit(fresh, tiny_corpus)
        message = str(info.value)
        assert "pre_stack.npz" in message
        assert "no objective_terms" in message
        assert "its terms: ['clntm']" in message

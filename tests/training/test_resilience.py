"""Numerical guards: the escalation ladder, and checkpointing callbacks."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, TrainingDivergedError
from repro.io import restore_checkpoint
from repro.models import CLNTM, ProdLDA
from repro.nn import Adam, SGD
from repro.objectives import ObjectiveSpec, attach_objectives
from repro.training.faults import FaultPlan
from repro.training.resilience import (
    GUARD_COUNTERS,
    CheckpointCallback,
    GuardPolicy,
    TrainingGuard,
    save_training_checkpoint,
)
from repro.training.trainer import (
    CheckpointSpec,
    RunSpec,
    Trainer,
    capture_training_state,
    restore_training_state,
)


def _guarded(fast_config, model_cls=ProdLDA, **policy_kwargs):
    """A (guard, model, optimizer) triple over an untrained model."""
    model = model_cls(30, fast_config)
    optimizer = SGD(model.parameters(), lr=0.1)
    guard = TrainingGuard(GuardPolicy(**policy_kwargs), model, optimizer)
    return guard, model, optimizer


class TestGuardPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"skips_per_escalation": 0},
            {"lr_backoff": 0.0},
            {"lr_backoff": 1.0},
            {"max_lr_backoffs": -1},
            {"max_restores": -1},
            {"min_lr": 0.0},
            {"max_faults": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            GuardPolicy(**kwargs)


class TestChecks:
    def test_loss_finiteness(self):
        assert TrainingGuard.check_loss(1.0)
        assert not TrainingGuard.check_loss(float("nan"))
        assert not TrainingGuard.check_loss(float("inf"))

    def test_gradient_finiteness(self):
        assert TrainingGuard.check_gradients(5.0)
        assert not TrainingGuard.check_gradients(float("inf"))


class TestEscalationLadder:
    def test_first_fault_only_skips(self, fast_config):
        guard, model, optimizer = _guarded(fast_config)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        assert guard.handle_fault("loss") == "skip"
        assert guard.counts["faults"] == 1
        assert guard.counts["skipped_batches"] == 1
        assert optimizer.lr == 0.1  # below the escalation threshold
        assert all(p.grad is None for p in model.parameters())

    def test_consecutive_faults_back_off_the_lr(self, fast_config):
        guard, _, optimizer = _guarded(fast_config, skips_per_escalation=2)
        guard.handle_fault("loss")
        assert guard.handle_fault("loss") == "lr_backoff"
        assert optimizer.lr == pytest.approx(0.05)
        assert guard.counts["lr_backoffs"] == 1

    def test_clean_batch_resets_the_consecutive_counter(self, fast_config):
        guard, _, optimizer = _guarded(fast_config, skips_per_escalation=2)
        guard.handle_fault("loss")
        guard.on_batch_ok()
        guard.handle_fault("loss")  # consecutive run restarted: no escalation
        assert optimizer.lr == 0.1
        assert guard.counts["faults"] == 2

    def test_lr_never_drops_below_min_lr(self, fast_config):
        guard, _, optimizer = _guarded(
            fast_config,
            skips_per_escalation=1,
            max_lr_backoffs=50,
            min_lr=0.04,
        )
        for _ in range(10):
            guard.handle_fault("loss")
        assert optimizer.lr == pytest.approx(0.04)

    def test_restore_rewinds_to_the_snapshot(self, fast_config):
        guard, model, optimizer = _guarded(
            fast_config, skips_per_escalation=1, max_lr_backoffs=0
        )
        snapshot = model.state_dict()
        for p in model.parameters():
            p.data = p.data + 1.0
        assert guard.handle_fault("gradient") == "restore"
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, snapshot[name])
        assert guard.counts["restores"] == 1

    def test_restore_keeps_the_backed_off_lr(self, fast_config):
        guard, _, optimizer = _guarded(
            fast_config, skips_per_escalation=1, max_lr_backoffs=1, max_restores=1
        )
        guard.handle_fault("loss")  # -> lr_backoff (snapshot still has lr=0.1)
        assert guard.handle_fault("loss") == "restore"
        assert optimizer.lr == pytest.approx(0.05)

    def test_final_rung_degrades_to_elbo_only(self, fast_config):
        guard, model, _ = _guarded(
            fast_config,
            model_cls=CLNTM,
            skips_per_escalation=1,
            max_lr_backoffs=0,
            max_restores=0,
        )
        assert model.objectives.flags() == {"clntm": True}
        assert guard.handle_fault("loss") == "degrade"
        assert model.objectives.flags() == {"clntm": False}
        assert guard.counts["degradations"] == 1
        # the ladder is exhausted: further escalations fall back to skipping
        assert guard.handle_fault("loss") == "skip"

    def test_termless_model_ladder_ends_at_skip(self, fast_config):
        guard, model, _ = _guarded(
            fast_config, skips_per_escalation=1, max_lr_backoffs=0, max_restores=0
        )
        assert model.objectives.term_names() == ()
        assert guard.handle_fault("loss") == "skip"  # nothing to shed
        assert guard.handle_fault("loss") == "skip"
        assert guard.counts["degradations"] == 0
        assert guard.degraded_terms == []

    def test_fault_budget_raises(self, fast_config):
        guard, _, _ = _guarded(fast_config, max_faults=2)
        guard.handle_fault("loss")
        with pytest.raises(TrainingDivergedError):
            guard.handle_fault("loss")

    def test_epoch_logs_are_deltas(self, fast_config):
        guard, _, _ = _guarded(fast_config)
        guard.handle_fault("loss")
        logs = guard.epoch_logs()
        assert set(logs) == {f"guard_{name}" for name in GUARD_COUNTERS}
        assert logs["guard_faults"] == 1.0
        assert guard.epoch_logs()["guard_faults"] == 0.0


class TestPerTermDegradation:
    """The degrade rung sheds objective terms one at a time, by name."""

    def _two_term_guarded(self, fast_config, **policy_kwargs):
        model = ProdLDA(30, fast_config)
        attach_objectives(
            model, (ObjectiveSpec("coherence"), ObjectiveSpec("vicreg"))
        )
        optimizer = SGD(model.parameters(), lr=0.1)
        guard = TrainingGuard(GuardPolicy(**policy_kwargs), model, optimizer)
        return guard, model

    def test_degrade_entry_names_the_shed_term(self, fast_config):
        guard, _, _ = _guarded(
            fast_config,
            model_cls=CLNTM,
            skips_per_escalation=1,
            max_lr_backoffs=0,
            max_restores=0,
        )
        assert guard.handle_fault("loss") == "degrade"
        assert guard.actions[-1] == "loss:degrade:clntm"
        assert guard.degraded_terms == ["clntm"]

    def test_multi_term_model_sheds_in_reverse_stack_order(self, fast_config):
        guard, model = self._two_term_guarded(
            fast_config, skips_per_escalation=1, max_lr_backoffs=0, max_restores=0
        )
        assert guard.handle_fault("loss") == "degrade"
        assert model.objectives.flags() == {"coherence": True, "vicreg": False}
        assert guard.handle_fault("loss") == "degrade"
        assert model.objectives.flags() == {"coherence": False, "vicreg": False}
        assert guard.handle_fault("loss") == "skip"  # nothing left to shed
        assert guard.degraded_terms == ["vicreg", "coherence"]
        assert [a for a in guard.actions if ":degrade:" in a] == [
            "loss:degrade:vicreg",
            "loss:degrade:coherence",
        ]
        assert guard.counts["degradations"] == 2

    def test_capture_records_per_term_flags(self, tiny_corpus, fast_config):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        attach_objectives(
            model, (ObjectiveSpec("coherence"), ObjectiveSpec("vicreg"))
        )
        model.fit(tiny_corpus)
        model.objectives.disable_next()  # as if the guard shed "vicreg"
        snapshot = capture_training_state(model)
        assert snapshot["objective_terms"] == {
            "coherence": True,
            "vicreg": False,
        }
        assert "extra_loss_enabled" not in snapshot

    def test_restore_round_trips_degraded_flags(
        self, tiny_corpus, fast_config, tmp_path
    ):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        attach_objectives(
            model, (ObjectiveSpec("coherence"), ObjectiveSpec("vicreg"))
        )
        model.objectives.apply_flags({"vicreg": False})
        callback = CheckpointCallback(tmp_path / "ckpt")
        model.fit(tiny_corpus, callbacks=[callback])

        clone = ProdLDA(tiny_corpus.vocab_size, fast_config)
        attach_objectives(
            clone, (ObjectiveSpec("coherence"), ObjectiveSpec("vicreg"))
        )
        clone.on_fit_start(tiny_corpus)
        restore_training_state(
            clone,
            callback.last_good_path,
            Adam(clone.parameters(), lr=fast_config.learning_rate),
            np.random.default_rng(0),
        )
        assert clone.objectives.flags() == {"coherence": True, "vicreg": False}


class TestGuardedFit:
    def test_injected_nan_is_survived_and_logged(self, tiny_corpus, fast_config):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        spec = RunSpec(guard=GuardPolicy(), faults=FaultPlan(nan_loss_steps=(1, 2)))
        Trainer(spec).fit(model, tiny_corpus)
        assert model._trainer.faults.counts["nan_loss"] == 2
        guard = model._trainer.guard
        assert guard.counts["faults"] == 2
        assert guard.counts["skipped_batches"] == 2
        assert sum(e.get("guard_faults", 0.0) for e in model.history) == 2.0
        # the run still converged to finite losses
        assert np.isfinite(model.history[-1]["total"])

    def test_injected_gradient_blowup_is_caught(self, tiny_corpus, fast_config):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        spec = RunSpec(guard=GuardPolicy(), faults=FaultPlan(exploding_grad_steps=(0,)))
        Trainer(spec).fit(model, tiny_corpus)
        guard = model._trainer.guard
        assert model._trainer.faults.counts["exploding_grad"] == 1
        assert guard.counts["faults"] == 1
        assert any("gradient:" in action for action in guard.actions)
        assert np.isfinite(model.history[-1]["total"])

    def test_unguarded_fit_has_no_guard_logs(self, tiny_corpus, fast_config):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        model.fit(tiny_corpus)
        assert model._trainer.guard is None
        assert not any(k.startswith("guard_") for k in model.history[-1])


class TestCheckpointCallback:
    def test_every_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError):
            CheckpointCallback(tmp_path, every=0)

    def test_writes_last_best_and_last_good(self, tiny_corpus, fast_config, tmp_path):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        callback = CheckpointCallback(tmp_path / "ckpt")
        model.fit(tiny_corpus, callbacks=[callback])
        for path in (callback.last_path, callback.best_path, callback.last_good_path):
            assert path.exists()
            meta = restore_checkpoint(
                ProdLDA(tiny_corpus.vocab_size, fast_config), path
            )
            assert meta["trainer_state"] is not None
        assert callback.saves > 0
        assert callback.interrupted == 0
        assert not list((tmp_path / "ckpt").glob("*.tmp"))

    def test_periodic_save_respects_every(self, tiny_corpus, fast_config, tmp_path):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        callback = CheckpointCallback(tmp_path / "ckpt", every=100)
        model.fit(tiny_corpus, callbacks=[callback])
        assert not callback.last_path.exists()  # 5 epochs < every=100
        assert callback.last_good_path.exists()

    def test_interrupted_save_is_counted_and_survived(
        self, tiny_corpus, fast_config, tmp_path
    ):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        callback = CheckpointCallback(tmp_path / "ckpt")
        spec = RunSpec(faults=FaultPlan(interrupt_saves=(0,)))
        Trainer(spec).fit(model, tiny_corpus, callbacks=[callback])
        assert callback.interrupted == 1
        assert model._trainer.faults.counts["interrupted_saves"] == 1
        # epoch 0's last.npz commit crashed; the epoch-1 save replaced it
        assert callback.last_path.exists()
        assert sum(
            e.get("guard_interrupted_saves", 0.0) for e in model.history
        ) == 1.0
        assert not list((tmp_path / "ckpt").glob("*.tmp"))

    def test_resumed_run_keeps_the_best_checkpoint_epoch(
        self, tiny_corpus, fast_config, tmp_path
    ):
        # At this rate the mean gradient norm bottoms out at epoch 2 and
        # rises after, so the epochs run after a resume never beat it.
        config = dataclasses.replace(fast_config, learning_rate=3e-2)

        def best_epoch(directory):
            meta = restore_checkpoint(
                ProdLDA(tiny_corpus.vocab_size, config), directory / "best.npz"
            )
            return meta["trainer_state"]["epoch"]

        def spec(directory, **kwargs):
            checkpoint = CheckpointSpec(str(directory), monitor="grad_norm")
            return RunSpec(checkpoint=checkpoint, **kwargs)

        full = ProdLDA(tiny_corpus.vocab_size, config)
        Trainer(spec(tmp_path / "full")).fit(full, tiny_corpus)

        short = dataclasses.replace(config, epochs=3)
        interrupted = ProdLDA(tiny_corpus.vocab_size, short)
        Trainer(spec(tmp_path / "resumed")).fit(interrupted, tiny_corpus)
        resumed = ProdLDA(tiny_corpus.vocab_size, config)
        resume = spec(tmp_path / "resumed", resume_from=tmp_path / "resumed" / "last.npz")
        Trainer(resume).fit(resumed, tiny_corpus)

        monitored = [[e["grad_norm"] for e in m.history] for m in (full, resumed)]
        assert monitored[0] == monitored[1]
        assert best_epoch(tmp_path / "full") == 2
        assert best_epoch(tmp_path / "resumed") == best_epoch(tmp_path / "full")

    def test_save_training_checkpoint_requires_a_fit(self, fast_config, tmp_path):
        model = ProdLDA(30, fast_config)
        with pytest.raises(ConfigError):
            save_training_checkpoint(model, tmp_path / "x.npz")

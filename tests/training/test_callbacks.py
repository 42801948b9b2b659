"""Training callbacks: validation loss and early stopping."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import ProdLDA
from repro.training.callbacks import Callback, EarlyStopping, ValidationEvaluator


class _EditLogs(Callback):
    """Calls ``edit(model, epoch, logs)`` at each epoch end; never stops."""

    def __init__(self, edit):
        self.edit = edit

    def on_epoch_end(self, model, epoch, logs) -> bool:
        self.edit(model, epoch, logs)
        return False


class TestValidationEvaluator:
    def test_adds_valid_loss_to_logs(self, tiny_dataset, fast_config):
        validator = ValidationEvaluator(tiny_dataset.test)
        model = ProdLDA(tiny_dataset.vocab_size, fast_config)
        model.fit(tiny_dataset.train, callbacks=[validator])
        assert len(validator.losses) == fast_config.epochs
        assert "valid_loss" in model.history[0]

    def test_validation_loss_decreases(self, tiny_dataset, fast_config):
        config = dataclasses.replace(fast_config, epochs=8)
        validator = ValidationEvaluator(tiny_dataset.test)
        ProdLDA(tiny_dataset.vocab_size, config).fit(
            tiny_dataset.train, callbacks=[validator]
        )
        assert validator.losses[-1] < validator.losses[0]


class TestEarlyStopping:
    def test_stops_when_monitor_stalls(self, tiny_corpus, fast_config):
        config = dataclasses.replace(fast_config, epochs=50)
        # monitor a quantity that never improves -> stops after `patience`
        stopper = EarlyStopping(monitor="constant", patience=3, restore_best=False)
        injector = _EditLogs(
            lambda model, epoch, logs: logs.__setitem__("constant", 1.0)
        )
        model = ProdLDA(tiny_corpus.vocab_size, config)
        model.fit(tiny_corpus, callbacks=[injector, stopper])
        # epoch 0 sets best; epochs 1-3 stall -> stop at epoch 3
        assert stopper.stopped_epoch == 3
        assert len(model.history) == 4

    def test_runs_to_completion_when_improving(self, tiny_corpus, fast_config):
        stopper = EarlyStopping(monitor="total", patience=50, restore_best=False)
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        model.fit(tiny_corpus, callbacks=[stopper])
        assert stopper.stopped_epoch is None
        assert len(model.history) == fast_config.epochs

    def test_restores_best_parameters(self, tiny_corpus, fast_config):
        config = dataclasses.replace(fast_config, epochs=6)
        best_states = {}

        def spy(model, epoch, logs):
            logs["tracked"] = float(6 - epoch) if epoch < 3 else 100.0
            if epoch == 2:
                best_states["best"] = model.state_dict()
            return None

        stopper = EarlyStopping(monitor="tracked", patience=2, restore_best=True)
        model = ProdLDA(tiny_corpus.vocab_size, config)
        model.fit(tiny_corpus, callbacks=[_EditLogs(spy), stopper])
        assert stopper.best_epoch == 2
        restored = model.state_dict()
        for key, value in best_states["best"].items():
            np.testing.assert_array_equal(restored[key], value)

    def test_unknown_monitor_raises(self, tiny_corpus, fast_config):
        stopper = EarlyStopping(monitor="nonexistent", patience=2)
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        with pytest.raises(ConfigError):
            model.fit(tiny_corpus, callbacks=[stopper])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EarlyStopping(patience=0)
        with pytest.raises(ConfigError):
            EarlyStopping(min_delta=-1.0)

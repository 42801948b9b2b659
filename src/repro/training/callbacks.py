"""Training callbacks: validation tracking and early stopping.

The paper trains for a fixed 100 epochs; real deployments usually want
validation-driven stopping.  Callbacks observe the epoch loop of
:meth:`repro.models.base.NeuralTopicModel.fit` and may request an early
stop or snapshot the best parameters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.corpus import Corpus
    from repro.models.base import NeuralTopicModel


class Callback:
    """Base class.  ``on_epoch_end`` returning True requests a stop."""

    def on_fit_start(self, model: "NeuralTopicModel") -> None:
        """Called once before the first epoch."""

    def on_epoch_end(self, model: "NeuralTopicModel", epoch: int, logs: dict) -> bool:
        """Called after each epoch with that epoch's averaged loss parts."""
        return False

    def on_fit_end(self, model: "NeuralTopicModel") -> None:
        """Called once after the loop finishes (stopped early or not)."""


class ValidationEvaluator(Callback):
    """Computes validation loss each epoch and stores it in the logs.

    The validation loss is the model's own training objective evaluated
    (without gradient, in eval mode) on a held-out corpus.
    """

    def __init__(self, validation_corpus: "Corpus", batch_size: int = 256):
        self.corpus = validation_corpus
        self.batch_size = batch_size
        self.losses: list[float] = []

    def on_epoch_end(self, model, epoch, logs) -> bool:
        from repro.tensor.tensor import no_grad

        was_training = model.training
        model.eval()
        bow = self.corpus.bow_matrix()
        total = 0.0
        batches = 0
        with no_grad():
            for start in range(0, bow.shape[0], self.batch_size):
                _, parts = model.loss_on_batch(bow[start : start + self.batch_size])
                total += parts["total"]
                batches += 1
        model.train(was_training)
        value = total / max(batches, 1)
        self.losses.append(value)
        logs["valid_loss"] = value
        return False


class EarlyStopping(Callback):
    """Stop when a monitored quantity stops improving.

    Parameters
    ----------
    monitor:
        Key in the epoch logs (e.g. ``"total"`` or — with a
        :class:`ValidationEvaluator` registered *before* this callback —
        ``"valid_loss"``).
    patience:
        Epochs without improvement tolerated before stopping.
    min_delta:
        Minimum decrease that counts as an improvement.
    restore_best:
        Reload the best epoch's parameters when stopping.
    """

    def __init__(
        self,
        monitor: str = "total",
        patience: int = 5,
        min_delta: float = 0.0,
        restore_best: bool = True,
    ):
        if patience < 1:
            raise ConfigError("patience must be >= 1")
        if min_delta < 0:
            raise ConfigError("min_delta must be non-negative")
        self.monitor = monitor
        self.patience = patience
        self.min_delta = min_delta
        self.restore_best = restore_best
        self.best_value = np.inf
        self.best_epoch = -1
        self.stopped_epoch: int | None = None
        self._best_state: dict | None = None
        self._stale = 0

    def on_fit_start(self, model) -> None:
        self.best_value = np.inf
        self.best_epoch = -1
        self.stopped_epoch = None
        self._best_state = None
        self._stale = 0

    def on_epoch_end(self, model, epoch, logs) -> bool:
        if self.monitor not in logs:
            raise ConfigError(
                f"EarlyStopping monitors {self.monitor!r} but epoch logs "
                f"only contain {sorted(logs)}"
            )
        value = logs[self.monitor]
        if value < self.best_value - self.min_delta:
            self.best_value = value
            self.best_epoch = epoch
            self._stale = 0
            if self.restore_best:
                self._best_state = model.state_dict()
            return False
        self._stale += 1
        if self._stale >= self.patience:
            self.stopped_epoch = epoch
            return True
        return False

    def on_fit_end(self, model) -> None:
        if self.restore_best and self._best_state is not None:
            model.load_state_dict(self._best_state)

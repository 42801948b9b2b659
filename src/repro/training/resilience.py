"""Fault-tolerant training runtime: numerical guards and checkpointing.

The ContraTopic regularizer is numerically fragile by construction —
Gumbel top-k subset sampling feeding an NPMI kernel can push the
contrastive term to NaN/Inf or blow up the ELBO.  The paper's multi-seed
tables only mean something if a run that diverges at epoch 80 recovers
instead of silently poisoning the reported mean.  This module provides
the two halves of that story:

* :class:`GuardPolicy` / :class:`TrainingGuard` — per-batch loss and
  gradient finiteness checks with an escalation ladder: **skip batch**
  → **halve the learning rate (with backoff)** → **restore the last good
  snapshot** → **degrade towards ELBO-only training** (shed the
  objective stack's regularizer terms, e.g. ContraTopic's
  ``contrastive``, one by name per escalation) → finally
  :class:`~repro.errors.TrainingDivergedError` when a fault budget is
  configured and spent.  Every action is counted and
  surfaces in the epoch logs as ``guard_*`` keys, which
  :class:`~repro.telemetry.callback.TelemetryCallback` folds into
  ``guard/*`` registry counters for ``BENCH_*.json`` reports.
* :class:`CheckpointCallback` — periodic / best-so-far / last-good
  format-v2 checkpoints (model + optimizer + RNG streams + epoch), written
  atomically, that a run with ``RunSpec(resume_from=...)`` continues
  bitwise-consistently.

The injectable failure modes live in :mod:`repro.training.faults`; the
guard itself never imports them except to recognise an injected crash
during a checkpoint save.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError, TrainingDivergedError
from repro.io import save_checkpoint
from repro.training.callbacks import Callback
from repro.training.faults import InjectedFault

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.models.base import NeuralTopicModel
    from repro.nn.optim import Optimizer


@dataclass(frozen=True)
class GuardPolicy:
    """Configuration of the numerical-guard escalation ladder.

    Every non-finite loss or gradient norm skips the offending batch.
    Each ``skips_per_escalation`` *consecutive* faulty batches climb one
    rung: first ``max_lr_backoffs`` learning-rate multiplications by
    ``lr_backoff`` (never below ``min_lr``), then up to ``max_restores``
    restorations of the last good snapshot, then — while the model still
    has enabled regularizer terms — permanent degradation: objective-stack
    terms are disabled one per escalation (reverse stack order, the
    disabled term's name lands in the event log) until only the base ELBO
    remains.  A clean batch resets the consecutive counter but not the
    rungs already climbed.

    ``max_faults`` bounds the total number of tolerated faults (None =
    unbounded): exceeding it raises
    :class:`~repro.errors.TrainingDivergedError` so a hopeless run fails
    loudly instead of spinning forever.
    """

    skips_per_escalation: int = 2
    lr_backoff: float = 0.5
    max_lr_backoffs: int = 2
    min_lr: float = 1e-8
    max_restores: int = 1
    max_faults: int | None = None

    def __post_init__(self) -> None:
        if self.skips_per_escalation < 1:
            raise ConfigError("skips_per_escalation must be >= 1")
        if not 0.0 < self.lr_backoff < 1.0:
            raise ConfigError("lr_backoff must lie in (0, 1)")
        if self.max_lr_backoffs < 0 or self.max_restores < 0:
            raise ConfigError("max_lr_backoffs/max_restores must be >= 0")
        if self.min_lr <= 0:
            raise ConfigError("min_lr must be positive")
        if self.max_faults is not None and self.max_faults < 1:
            raise ConfigError("max_faults must be >= 1 (or None)")


#: Counter names a guard maintains; each becomes a ``guard_<name>`` epoch
#: log key and a ``guard/<name>`` telemetry counter.
GUARD_COUNTERS = (
    "faults",
    "skipped_batches",
    "lr_backoffs",
    "restores",
    "degradations",
)


class TrainingGuard:
    """Runtime state machine executing a :class:`GuardPolicy`.

    One instance lives for one ``fit`` call; the epoch loop asks
    :meth:`check_loss` / :meth:`check_gradients` per batch and calls
    :meth:`handle_fault` when either fails, then :meth:`on_batch_ok` /
    :meth:`on_epoch_end` on the happy path.
    """

    def __init__(
        self,
        policy: GuardPolicy,
        model: "NeuralTopicModel",
        optimizer: "Optimizer",
    ):
        self.policy = policy
        self.model = model
        self.optimizer = optimizer
        self.counts: dict[str, int] = {name: 0 for name in GUARD_COUNTERS}
        self.actions: list[str] = []
        #: Objective-term names disabled by the degradation rung, in order.
        self.degraded_terms: list[str] = []
        self._consecutive = 0
        self._epoch_had_fault = False
        self._prev_counts = dict(self.counts)
        self._last_good: tuple[dict, dict] | None = None
        self.snapshot_last_good()

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    @staticmethod
    def check_loss(value: float) -> bool:
        """True when the batch loss is finite."""
        return bool(np.isfinite(value))

    @staticmethod
    def check_gradients(grad_norm: float) -> bool:
        """True when the pre-clip global gradient norm is finite."""
        return bool(np.isfinite(grad_norm))

    @staticmethod
    def check_array(values) -> bool:
        """True when *every* element of an output array is finite.

        The serving-side guard predicate: :mod:`repro.serving` runs it
        over each micro-batch's θ rows (and the registry over candidate
        checkpoint parameters), so a model that starts emitting NaN/Inf
        trips the circuit breaker through the same machinery that guards
        training.
        """
        return bool(np.isfinite(np.asarray(values)).all())

    # ------------------------------------------------------------------
    # recovery ladder
    # ------------------------------------------------------------------
    def handle_fault(self, kind: str) -> str:
        """React to one non-finite batch; returns the action taken."""
        self.counts["faults"] += 1
        self._consecutive += 1
        self._epoch_had_fault = True
        self.model.zero_grad()
        self.counts["skipped_batches"] += 1
        action = "skip"
        if self._consecutive % self.policy.skips_per_escalation == 0:
            action = self._escalate()
        entry = f"{kind}:{action}"
        if action == "degrade" and self.degraded_terms:
            # The event log names the term the degradation rung disabled,
            # e.g. "loss:degrade:contrastive".
            entry = f"{entry}:{self.degraded_terms[-1]}"
        self.actions.append(entry)
        budget = self.policy.max_faults
        if budget is not None and self.counts["faults"] >= budget:
            raise TrainingDivergedError(
                f"training diverged: {self.counts['faults']} non-finite "
                f"batches (budget {budget}) despite "
                f"{self.counts['lr_backoffs']} LR backoffs, "
                f"{self.counts['restores']} restores and "
                f"{self.counts['degradations']} degradations"
            )
        return action

    def _escalate(self) -> str:
        policy = self.policy
        if self.counts["lr_backoffs"] < policy.max_lr_backoffs:
            self.optimizer.lr = max(
                self.optimizer.lr * policy.lr_backoff, policy.min_lr
            )
            self.counts["lr_backoffs"] += 1
            return "lr_backoff"
        if self.counts["restores"] < policy.max_restores and self._last_good:
            model_state, optim_state = self._last_good
            # Keep the backed-off learning rate: the snapshot predates the
            # mitigation and restoring it would undo the backoff.
            lr = self.optimizer.lr
            self.model.load_state_dict(model_state)
            self.optimizer.load_state_dict(optim_state)
            self.optimizer.lr = lr
            self.counts["restores"] += 1
            return "restore"
        disabled = self.model.objectives.disable_next()
        if disabled is not None:
            self.counts["degradations"] += 1
            self.degraded_terms.append(disabled)
            return "degrade"
        return "skip"

    # ------------------------------------------------------------------
    # happy path
    # ------------------------------------------------------------------
    def on_batch_ok(self) -> None:
        self._consecutive = 0

    def snapshot_last_good(self) -> None:
        """Capture an in-memory (model, optimizer) restore point."""
        self._last_good = (
            self.model.state_dict(),
            self.optimizer.state_dict(),
        )

    def on_epoch_end(self) -> None:
        """Refresh the restore point after an epoch with no faults."""
        if not self._epoch_had_fault:
            self.snapshot_last_good()
        self._epoch_had_fault = False

    def epoch_logs(self) -> dict[str, float]:
        """Per-epoch deltas of every counter, as ``guard_<name>`` keys."""
        logs = {
            f"guard_{name}": float(value - self._prev_counts[name])
            for name, value in self.counts.items()
        }
        self._prev_counts = dict(self.counts)
        return logs


# ----------------------------------------------------------------------
# checkpoint callback
# ----------------------------------------------------------------------
def save_training_checkpoint(
    model: "NeuralTopicModel", path: str | Path, extra: dict | None = None
) -> None:
    """Write a format-v2 checkpoint carrying the full resumable state.

    Requires an active (or just-finished) ``fit`` call — that is where the
    optimizer and RNG stream states live.
    """
    context = model._trainer
    if context is None:
        raise ConfigError(
            "no training context: save_training_checkpoint only works "
            "during or after fit()"
        )
    save_checkpoint(
        model,
        path,
        extra=extra,
        optimizer=context.optimizer,
        trainer_state=model.training_state(),
    )


def _finite(logs: dict) -> bool:
    """True when every numeric value of one epoch's logs is finite."""
    return all(
        np.isfinite(value)
        for value in logs.values()
        if isinstance(value, (int, float))
    )


class CheckpointCallback(Callback):
    """Periodic + best-so-far + last-good checkpointing during ``fit``.

    Writes up to three files into ``directory`` (all atomically, all
    format v2 so any of them can seed ``RunSpec(resume_from=...)``):

    ``last.npz``
        Every ``every`` epochs, unconditionally.
    ``last_good.npz``
        After every epoch whose logs are entirely finite — the file the
        guard's operators reach for after a divergence.
    ``best.npz``
        Whenever the monitored quantity (default ``"total"`` loss)
        improves, and the epoch was finite.

    An :class:`~repro.training.faults.InjectedFault` raised mid-commit is
    counted (``interrupted`` attribute, ``guard_interrupted_saves`` epoch
    log) and survived — the previous file at that path stays intact, which
    is exactly the recovery property the fault harness exists to test.
    Real I/O errors propagate.
    """

    def __init__(
        self,
        directory: str | Path,
        every: int = 1,
        monitor: str = "total",
    ):
        if every < 1:
            raise ConfigError("every must be >= 1")
        self.directory = Path(directory)
        self.every = every
        self.monitor = monitor
        self.saves = 0
        self.interrupted = 0
        self.best_value = float("inf")
        self._prev_interrupted = 0

    @property
    def last_path(self) -> Path:
        return self.directory / "last.npz"

    @property
    def best_path(self) -> Path:
        return self.directory / "best.npz"

    @property
    def last_good_path(self) -> Path:
        return self.directory / "last_good.npz"

    def _save(self, model: "NeuralTopicModel", path: Path, epoch: int) -> None:
        try:
            save_training_checkpoint(model, path, extra={"epoch": epoch})
            self.saves += 1
        except InjectedFault:
            self.interrupted += 1

    def on_fit_start(self, model) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        # A resumed run arrives with its history restored: the best value
        # so far carries over, so best.npz ends at the epoch an
        # uninterrupted run would have kept.
        self.best_value = min(
            (
                float(entry[self.monitor])
                for entry in model.history
                if self.monitor in entry and _finite(entry)
            ),
            default=float("inf"),
        )

    def on_epoch_end(self, model, epoch, logs) -> bool:
        if (epoch + 1) % self.every == 0:
            self._save(model, self.last_path, epoch)
        if _finite(logs):
            self._save(model, self.last_good_path, epoch)
            value = logs.get(self.monitor)
            if value is not None and value < self.best_value:
                self.best_value = float(value)
                self._save(model, self.best_path, epoch)
        delta = self.interrupted - self._prev_interrupted
        if delta:
            logs["guard_interrupted_saves"] = float(delta)
            self._prev_interrupted = self.interrupted
        return False

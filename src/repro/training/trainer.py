"""The training engine: the paper's Algorithm 1 as a reusable service.

:class:`Trainer`
    Owns the epoch/mini-batch loop, the optimizer, the batch-shuffling RNG,
    the guard runtime, the fault injector, callbacks and
    checkpoint/resume.  It drives *any* model exposing the narrow
    :class:`Trainable` contract (``loss_on_batch`` / ``parameters`` /
    ``rng_streams`` plus a handful of :class:`~repro.nn.module.Module`
    niceties) — the same model-agnostic shape coherence-regularized
    trainers take in Ding et al. (2018) and Li et al. (2023).  One batch
    step (:meth:`Trainer.train_batch`) runs::

        zero_grad → loss → loss fault → guard → backward
                  → gradient fault → clip → guard → Adam step

:class:`TrainState`
    The per-run mutable state (optimizer, batch RNG, guard runtime,
    fault injector, epoch counter) that is *not* model parameters.
    Callbacks reach it through ``model._trainer`` (e.g.
    :class:`~repro.training.resilience.CheckpointCallback` needs the
    optimizer and RNG streams to write a resumable format-v2
    checkpoint), and it stays attached after ``fit`` returns so a
    post-training save can capture the full state.

:class:`RunSpec`
    Every setting of one run — guard policy, checkpointing, fault plan,
    resume path and objective terms — as plain data.  Every call-site
    layer (CLI, experiment runner, grid search, training protocol, online
    extension) trains through ``Trainer(spec).fit(model, corpus)``;
    ``NeuralTopicModel.fit`` is the same call with the default spec.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.data.loaders import Batch, BatchIterator
from repro.errors import ConfigError
from repro.nn.optim import Adam, Optimizer, clip_grad_norm
from repro.tensor.dtypes import get_default_dtype
from repro.training.faults import FaultInjector, FaultPlan, interrupted_writes
from repro.training.resilience import (
    CheckpointCallback,
    GuardPolicy,
    TrainingGuard,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.data.corpus import Corpus
    from repro.objectives.registry import ObjectiveSpec
    from repro.tensor.tensor import Tensor
    from repro.training.callbacks import Callback


# ----------------------------------------------------------------------
# the model contract
# ----------------------------------------------------------------------
@runtime_checkable
class Trainable(Protocol):
    """What a model must expose for :class:`Trainer` to drive it.

    The contract is deliberately narrow — a loss, its parameters, and the
    RNG streams that make resume bitwise-consistent — so the engine stays
    model-agnostic: any objective packaged as ``loss_on_batch`` trains
    through the same loop, guards, faults and checkpoints.
    """

    def loss_on_batch(self, bow: Batch) -> "tuple[Tensor, dict[str, float]]":
        """Total differentiable loss for one batch, plus scalar parts.

        ``bow`` is whatever the :class:`~repro.data.loaders.BatchIterator`
        yields: a dense ``(batch, vocab)`` array, or a
        :class:`~repro.tensor.sparse.CSRBatch` on the sparse fast path
        (``np.asarray(bow)`` densifies it for models without a sparse
        kernel).
        """
        ...

    def parameters(self):
        """The trainable parameters (for the optimizer and grad clip)."""
        ...

    def rng_streams(self) -> dict[str, np.random.Generator]:
        """Every RNG stream training consumes (for checkpoint/resume)."""
        ...


#: Attributes beyond the :class:`Trainable` protocol that the loop uses
#: (``objectives``: the guard's degrade rung and the checkpointed term
#: flags); every :class:`~repro.models.base.NeuralTopicModel` has them.
_CONTRACT_ATTRS = (
    "loss_on_batch",
    "parameters",
    "rng_streams",
    "config",
    "history",
    "train",
    "eval",
    "on_fit_start",
    "objectives",
)


def _check_contract(model) -> None:
    missing = [name for name in _CONTRACT_ATTRS if not hasattr(model, name)]
    if missing:
        raise ConfigError(
            f"{type(model).__name__} does not satisfy the Trainable "
            f"contract; missing: {', '.join(missing)}"
        )


# ----------------------------------------------------------------------
# per-run mutable state
# ----------------------------------------------------------------------
@dataclass
class TrainState:
    """The per-run training state that is not model parameters.

    Callbacks reach it through
    ``model._trainer`` (e.g. the checkpoint callback needs the optimizer
    and RNG streams to write a resumable format-v2 checkpoint); it stays
    attached after ``fit`` returns so a post-training save can still
    capture the full state.
    """

    optimizer: Optimizer
    batch_rng: np.random.Generator
    guard: TrainingGuard | None = None
    faults: FaultInjector | None = None
    epoch: int = -1


def capture_training_state(model) -> dict:
    """JSON-serializable snapshot of the non-parameter training state.

    Travels as ``trainer_state`` in format-v2 checkpoints
    (:func:`repro.io.save_checkpoint`); :meth:`Trainer.fit` with a resume
    path restores it via :func:`restore_training_state`.
    """
    state: TrainState | None = getattr(model, "_trainer", None)
    if state is None:
        raise ConfigError("training_state requires an active fit()")
    return {
        "epoch": int(state.epoch),
        "rng": {
            name: rng.bit_generator.state
            for name, rng in model.rng_streams().items()
        },
        "batch_rng": state.batch_rng.bit_generator.state,
        "history": [dict(entry) for entry in model.history],
        # Per-term degradation state (the guard's degrade rung).
        "objective_terms": model.objectives.flags(),
    }


def restore_training_state(
    model,
    path: str | Path,
    optimizer: Optimizer,
    batch_rng: np.random.Generator,
) -> int:
    """Load a v2 checkpoint into (model, optimizer, RNG streams).

    Returns the epoch index training should continue from.
    """
    from repro.io import CheckpointError, restore_checkpoint

    meta = restore_checkpoint(model, path, optimizer=optimizer)
    state = meta.get("trainer_state")
    if not state:
        raise CheckpointError(
            f"{path} carries no trainer state; resumable checkpoints "
            "are written by CheckpointCallback or "
            "save_training_checkpoint()"
        )
    terms = state.get("objective_terms")
    own = model.objectives.term_names()
    if terms is None or not set(terms) <= set(own):
        found = (
            "no objective_terms (written before per-term flags)"
            if terms is None
            else f"objective terms {sorted(set(terms) - set(own))}"
        )
        raise CheckpointError(
            f"{path} carries {found}, which {type(model).__name__} cannot "
            f"resume (its terms: {list(own)}); load its parameters with "
            "load_checkpoint and train afresh"
        )
    streams = model.rng_streams()
    for name, rng_state in state["rng"].items():
        if name not in streams:
            raise CheckpointError(
                f"{path} has RNG stream {name!r} unknown to "
                f"{type(model).__name__} (streams: {sorted(streams)})"
            )
        streams[name].bit_generator.state = rng_state
    batch_rng.bit_generator.state = state["batch_rng"]
    model.history = [dict(entry) for entry in state["history"]]
    model.objectives.apply_flags(terms)
    return int(state["epoch"]) + 1


# ----------------------------------------------------------------------
# declarative run configuration
# ----------------------------------------------------------------------
@dataclass
class CheckpointSpec:
    """Declarative settings for periodic/best/last-good checkpointing.

    Materialized into a
    :class:`~repro.training.resilience.CheckpointCallback` per ``fit``.
    """

    directory: str
    every: int = 1
    monitor: str = "total"

    def __post_init__(self) -> None:
        if not self.directory:
            raise ConfigError("checkpoint directory must be non-empty")
        if self.every < 1:
            raise ConfigError("every must be >= 1")


@dataclass
class RunSpec:
    """Every setting of one training run, as plain data.

    ``guard``
        Optional :class:`~repro.training.resilience.GuardPolicy`; when
        set, the run trains under the skip → LR-backoff → restore →
        degrade escalation ladder.
    ``checkpoint``
        Optional :class:`CheckpointSpec`; when set, the run writes
        periodic/best/last-good resumable format-v2 checkpoints.
    ``faults``
        Optional :class:`~repro.training.faults.FaultPlan` for the
        deterministic fault-injection harness.  When the plan interrupts
        checkpoint saves, the trainer activates
        :func:`~repro.training.faults.interrupted_writes` for the run.
    ``resume_from``
        Optional path of a format-v2 checkpoint to continue from,
        bitwise-consistently.
    ``objectives``
        Optional tuple of
        :class:`~repro.objectives.registry.ObjectiveSpec`.  When set, the
        trainer replaces the model's own objective stack with ELBO +
        these terms before ``on_fit_start`` — the regularizer-zoo sweep
        path (``()`` trains pure ELBO).  ``None`` keeps whatever the
        model declares.
    """

    guard: GuardPolicy | None = None
    checkpoint: CheckpointSpec | None = None
    faults: FaultPlan | None = None
    resume_from: str | Path | None = None
    objectives: "tuple[ObjectiveSpec, ...] | None" = None

    def __post_init__(self) -> None:
        if self.objectives is not None:
            # Lazy import: repro.objectives pulls the similarity/NPMI
            # machinery, which plain training runs never need.
            from repro.objectives.registry import ObjectiveSpec

            for entry in self.objectives:
                if not isinstance(entry, ObjectiveSpec):
                    raise ConfigError(
                        "RunSpec.objectives entries must be ObjectiveSpec, "
                        f"got {type(entry).__name__}"
                    )
            self.objectives = tuple(self.objectives)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class Trainer:
    """Algorithm-1 style epoch/mini-batch training with Adam, as a service.

    ``spec`` is the run's configuration; ``None`` means a plain unguarded
    run.  One trainer may run many fits; all per-run state lives in the
    :class:`TrainState` attached to each model.
    """

    def __init__(self, spec: RunSpec | None = None):
        self.spec = spec if spec is not None else RunSpec()

    def clip_gradients(self, model) -> float:
        """Global-norm clipping; returns the pre-clip norm."""
        return clip_grad_norm(model.parameters(), model.config.grad_clip)

    def train_batch(
        self, model, state: TrainState, bow: Batch
    ) -> tuple[dict[str, float], float] | None:
        """Run one batch: loss, backward, clip and the Adam step.

        Returns ``(loss parts, pre-clip grad norm)``, or ``None`` when the
        guard skipped the batch (its statistics then stay out of the
        epoch averages, exactly as a skipped batch should).
        """
        guard, faults = state.guard, state.faults
        state.optimizer.zero_grad()
        loss, parts = model.loss_on_batch(bow)
        if faults is not None:
            faults.corrupt_loss(loss)
        if guard is not None and not guard.check_loss(loss.item()):
            guard.handle_fault("loss")
            return None
        loss.backward()
        if faults is not None:
            faults.corrupt_gradients(model.parameters())
        grad_norm = self.clip_gradients(model)
        if guard is not None and not guard.check_gradients(grad_norm):
            guard.handle_fault("gradient")
            return None
        state.optimizer.step()
        if guard is not None:
            guard.on_batch_ok()
        return parts, grad_norm

    def train_epoch(
        self, model, state: TrainState, batches: BatchIterator
    ) -> dict[str, float]:
        """One pass over the (re-shuffled) corpus; returns the epoch logs."""
        epoch_start = time.perf_counter()
        epoch_parts: dict[str, float] = {}
        n_batches = 0
        docs_seen = 0
        grad_norm_total = 0.0
        for bow in batches:
            outcome = self.train_batch(model, state, bow)
            if outcome is None:
                continue
            parts, grad_norm = outcome
            grad_norm_total += grad_norm
            for key, value in parts.items():
                epoch_parts[key] = epoch_parts.get(key, 0.0) + value
            n_batches += 1
            docs_seen += len(bow)
        logs = {k: v / max(n_batches, 1) for k, v in epoch_parts.items()}
        # Telemetry: wall time on the monotonic clock, throughput and the
        # mean pre-clip gradient norm travel with the loss parts so
        # callbacks (e.g. TelemetryCallback) see them per epoch.
        epoch_seconds = time.perf_counter() - epoch_start
        logs["epoch_seconds"] = epoch_seconds
        logs["docs_per_sec"] = (
            docs_seen / epoch_seconds if epoch_seconds > 0 else 0.0
        )
        logs["grad_norm"] = grad_norm_total / max(n_batches, 1)
        if state.guard is not None:
            logs.update(state.guard.epoch_logs())
            state.guard.on_epoch_end()
        return logs

    def fit(
        self,
        model,
        corpus: "Corpus",
        *,
        callbacks: Sequence["Callback"] = (),
    ):
        """Train ``model`` on ``corpus`` under this trainer's spec.

        ``callbacks`` observe the epoch loop after the checkpoint callback
        ``spec.checkpoint`` builds (so telemetry sees its log
        annotations).  Returns the model, fitted, with its
        :class:`TrainState` left attached as ``model._trainer``.
        """
        _check_contract(model)
        if corpus.vocab_size != model.vocab_size:
            raise ConfigError(
                f"corpus vocab {corpus.vocab_size} != model vocab "
                f"{model.vocab_size}"
            )
        spec = self.spec
        run_callbacks: list["Callback"] = []
        if spec.checkpoint is not None:
            ckpt = spec.checkpoint
            run_callbacks.append(
                CheckpointCallback(
                    ckpt.directory, every=ckpt.every, monitor=ckpt.monitor
                )
            )
        run_callbacks.extend(callbacks)
        faults = FaultInjector(spec.faults) if spec.faults is not None else None

        model.train()
        if spec.objectives is not None:
            from repro.objectives.registry import attach_objectives

            # Before on_fit_start so the spec-built terms' prepare hooks
            # (NPMI kernels, idf tables, RNG seeding) see the corpus.
            attach_objectives(model, spec.objectives)
        model.on_fit_start(corpus)
        optimizer = Adam(model.parameters(), lr=model.config.learning_rate)
        batch_rng = np.random.default_rng(model.config.seed + 1)
        start_epoch = 0
        if spec.resume_from is not None:
            start_epoch = restore_training_state(
                model, spec.resume_from, optimizer, batch_rng
            )
        else:
            # A fresh run stands alone, as its fresh Adam and batch RNG
            # do: a refit neither appends to the last run's epochs nor
            # hands them to a checkpoint callback's best value.
            model.history = []
        state = TrainState(
            optimizer=optimizer,
            batch_rng=batch_rng,
            # Built after the restore: the guard snapshots the resumed
            # parameters as its first restore point.
            guard=(
                TrainingGuard(spec.guard, model=model, optimizer=optimizer)
                if spec.guard is not None
                else None
            ),
            faults=faults,
            epoch=start_epoch - 1,
        )
        model._trainer = state

        interrupts = (
            interrupted_writes(faults)
            if faults is not None and faults.plan.interrupt_saves
            else contextlib.nullcontext()
        )
        with interrupts:
            for callback in run_callbacks:
                callback.on_fit_start(model)
            # The BOW matrix is materialized once, in the policy dtype, so
            # the per-batch Tensor wrap in ``encode_theta`` is a no-copy
            # view instead of a full float64→float32 cast every step.
            batches = BatchIterator(
                corpus,
                batch_size=model.config.batch_size,
                rng=batch_rng,
                dtype=get_default_dtype(),
            )
            for epoch in range(start_epoch, model.config.epochs):
                logs = self.train_epoch(model, state, batches)
                # The history entry IS the logs dict callbacks receive, so
                # a callback annotating the logs (e.g. CheckpointCallback's
                # guard_interrupted_saves delta) annotates the history too.
                logs["epoch"] = float(epoch)
                model.history.append(logs)
                state.epoch = epoch
                stop = False
                for callback in run_callbacks:
                    stop = callback.on_epoch_end(model, epoch, logs) or stop
                if stop:
                    break
            for callback in run_callbacks:
                callback.on_fit_end(model)
        model.eval()
        model._fitted = True
        return model

"""The standalone training engine: Algorithm 1 as a reusable service.

Historically the paper's Algorithm 1 (epoch/mini-batch Adam training with
the contrastive regularizer) lived as a god-method inside
:meth:`repro.models.base.NeuralTopicModel.fit`, interleaving data
iteration, optimization, guard escalation, fault injection,
checkpoint/resume and telemetry.  This module carves that loop out into
three pieces:

:class:`Trainer`
    Owns the epoch/batch loop, the optimizer, the batch-shuffling RNG,
    the guard runtime, the fault injector, callbacks and
    checkpoint/resume.  It drives *any* model exposing the narrow
    :class:`Trainable` contract (``loss_on_batch`` / ``parameters`` /
    ``rng_streams`` plus a handful of :class:`~repro.nn.module.Module`
    niceties) — the same model-agnostic shape coherence-regularized
    trainers take in Ding et al. (2018) and Li et al. (2023).  The
    batch step is a pipeline of named, individually-testable methods::

        zero_grad → compute_loss → inject_loss_fault → guard_loss
                  → backward → inject_gradient_fault → clip_gradients
                  → guard_gradients → apply_step

:class:`TrainState`
    The per-run mutable state (optimizer, batch RNG, guard runtime,
    fault injector, epoch counter) that is *not* model parameters.  It
    replaces the old ad-hoc ``TrainerContext``; callbacks still reach it
    through ``model._trainer`` (e.g.
    :class:`~repro.training.resilience.CheckpointCallback` needs the
    optimizer and RNG streams to write a resumable format-v2
    checkpoint), and it stays attached after ``fit`` returns so a
    post-training save can capture the full state.

:class:`RunSpec`
    A declarative run configuration — model hyper-parameters, guard
    policy, checkpoint/fault settings and a resume path — with a
    dict/JSON round-trip, so an entire training setup can travel through
    config files, CLI flags and process boundaries as plain data.  Every
    call-site layer (CLI, experiment runner, grid search, training
    protocol, online extension) constructs training through it.

``NeuralTopicModel.fit`` remains as a thin facade delegating here, so the
public API, format-v2 checkpoints and bitwise-identical resume semantics
are all preserved: training through ``Trainer(RunSpec()).fit(model,
corpus)`` produces exactly the same per-epoch ``history`` as the old
in-model loop for a fixed seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
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
    from repro.models.base import NTMConfig
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

    Replaces the old ``TrainerContext``.  Callbacks reach it through
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


#: Dataclass fields that serialize as JSON lists but must come back as
#: tuples (dataclass defaults and ``__post_init__`` validation expect
#: tuples, and frozen specs should not carry mutable members).
_TUPLE_FIELDS = frozenset(
    {
        "hidden_sizes",
        "nan_loss_steps",
        "exploding_grad_steps",
        "interrupt_saves",
        "interrupt_categories",
        "serve_latency_steps",
        "serve_nan_steps",
        "serve_death_steps",
        "corrupt_checkpoint_loads",
    }
)


def _encode(spec) -> dict | None:
    if spec is None:
        return None
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in dataclasses.asdict(spec).items()
    }


def _decode(cls, data: dict | None, label: str):
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ConfigError(f"RunSpec field {label!r} must be a mapping or null")
    kwargs = {
        key: tuple(value)
        if key in _TUPLE_FIELDS and isinstance(value, list)
        else value
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad RunSpec field {label!r}: {exc}") from exc


@dataclass
class RunSpec:
    """A declarative description of one training run.

    Bundles the model hyper-parameters with every resilience/runtime
    setting the engine understands, as plain (JSON round-trippable) data:

    ``model``
        Optional :class:`~repro.models.base.NTMConfig` recording the
        hyper-parameters the model was (or should be) built with —
        provenance for reports and the handle config files use.
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
        :class:`~repro.objectives.registry.ObjectiveSpec` (or their
        dicts).  When set, the trainer replaces the model's own objective
        stack with ELBO + these terms before ``on_fit_start`` — the
        regularizer-zoo sweep path (``()`` trains pure ELBO).  ``None``
        keeps whatever the model declares.

    Use :meth:`to_dict`/:meth:`from_dict` (or the JSON twins) to move a
    spec through config files and process boundaries.
    """

    model: "NTMConfig | None" = None
    guard: GuardPolicy | None = None
    checkpoint: CheckpointSpec | None = None
    faults: FaultPlan | None = None
    resume_from: str | None = None
    objectives: "tuple | None" = None

    def __post_init__(self) -> None:
        if self.objectives is not None:
            # Lazy import: repro.objectives pulls the similarity/NPMI
            # machinery, which plain training runs never need.
            from repro.objectives.registry import ObjectiveSpec

            specs = []
            for entry in self.objectives:
                if isinstance(entry, ObjectiveSpec):
                    specs.append(entry)
                elif isinstance(entry, dict):
                    specs.append(ObjectiveSpec.from_dict(entry))
                else:
                    raise ConfigError(
                        "RunSpec.objectives entries must be ObjectiveSpec "
                        f"or mappings, got {type(entry).__name__}"
                    )
            self.objectives = tuple(specs)

    # -- convenience constructors --------------------------------------
    @classmethod
    def guarded(cls, **kwargs) -> "RunSpec":
        """A spec with the default guard policy enabled."""
        kwargs.setdefault("guard", GuardPolicy())
        return cls(**kwargs)

    # -- dict / JSON round-trip ----------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form (nested dataclasses become dicts, tuples lists)."""
        return {
            "model": _encode(self.model),
            "guard": _encode(self.guard),
            "checkpoint": _encode(self.checkpoint),
            "faults": _encode(self.faults),
            "resume_from": (
                str(self.resume_from) if self.resume_from is not None else None
            ),
            "objectives": (
                [spec.to_dict() for spec in self.objectives]
                if self.objectives is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Inverse of :meth:`to_dict`; validates fields via the dataclasses."""
        if not isinstance(data, dict):
            raise ConfigError(f"RunSpec.from_dict expects a mapping, got {type(data)}")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown RunSpec fields: {sorted(unknown)}")
        from repro.models.base import NTMConfig

        resume = data.get("resume_from")
        objectives = data.get("objectives")
        if objectives is not None and not isinstance(objectives, (list, tuple)):
            raise ConfigError(
                "RunSpec field 'objectives' must be a list of objective "
                f"specs or null, got {type(objectives).__name__}"
            )
        return cls(
            model=_decode(NTMConfig, data.get("model"), "model"),
            guard=_decode(GuardPolicy, data.get("guard"), "guard"),
            checkpoint=_decode(CheckpointSpec, data.get("checkpoint"), "checkpoint"),
            faults=_decode(FaultPlan, data.get("faults"), "faults"),
            resume_from=str(resume) if resume is not None else None,
            objectives=tuple(objectives) if objectives is not None else None,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid RunSpec JSON: {exc}") from exc
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class Trainer:
    """Algorithm-1 style epoch/mini-batch training with Adam, as a service.

    Parameters
    ----------
    spec:
        Declarative run configuration; ``None`` means a plain unguarded
        run (exactly the old ``model.fit(corpus)`` behaviour).
    callbacks:
        Callbacks attached to every ``fit`` this trainer runs, *after*
        the spec-derived ones (the checkpoint callback built from
        ``spec.checkpoint`` always observes an epoch first, so telemetry
        sees its log annotations).

    One trainer may run many fits; all per-run state lives in the
    :class:`TrainState` attached to each model.
    """

    def __init__(
        self,
        spec: RunSpec | None = None,
        *,
        callbacks: Sequence["Callback"] = (),
    ):
        self.spec = spec if spec is not None else RunSpec()
        self.callbacks: list["Callback"] = list(callbacks)

    # ------------------------------------------------------------------
    # construction helpers (one per spec field, each overridable)
    # ------------------------------------------------------------------
    def build_optimizer(self, model) -> Optimizer:
        """Adam over the model's parameters at the configured rate."""
        return Adam(model.parameters(), lr=model.config.learning_rate)

    def build_batch_rng(self, model) -> np.random.Generator:
        """The batch-shuffling stream (seeded off the model seed)."""
        return np.random.default_rng(model.config.seed + 1)

    def build_guard(self, model, optimizer: Optimizer) -> TrainingGuard | None:
        """Materialize the spec's guard policy into a runtime, if any."""
        if self.spec.guard is None:
            return None
        return TrainingGuard(self.spec.guard, model=model, optimizer=optimizer)

    def build_callbacks(self) -> list["Callback"]:
        """Spec-derived callbacks (currently: the checkpoint callback)."""
        if self.spec.checkpoint is None:
            return []
        ckpt = self.spec.checkpoint
        return [
            CheckpointCallback(
                ckpt.directory, every=ckpt.every, monitor=ckpt.monitor
            )
        ]

    def build_faults(
        self, override: FaultInjector | None
    ) -> tuple[FaultInjector | None, bool]:
        """Resolve the run's fault injector.

        Returns ``(injector, trainer_owns_interrupts)``: the trainer only
        activates the :func:`interrupted_writes` context for injectors it
        built itself from ``spec.faults`` — a caller-supplied injector
        keeps ownership of that context (the pre-existing contract of
        ``fit(faults=...)``).
        """
        if override is not None:
            return override, False
        if self.spec.faults is not None:
            plan = self.spec.faults
            return FaultInjector(plan), bool(plan.interrupt_saves)
        return None, False

    # ------------------------------------------------------------------
    # the batch-step pipeline: zero_grad → loss → faults → guard →
    # backward → faults → clip → guard → step.  Each stage is a named
    # method so tests (and subclasses) can exercise or replace one stage
    # at a time.
    # ------------------------------------------------------------------
    def zero_grad(self, state: TrainState) -> None:
        """Clear accumulated gradients before the batch's forward pass."""
        state.optimizer.zero_grad()

    def compute_loss(self, model, bow: Batch):
        """Forward pass: the model's total loss and its scalar parts."""
        return model.loss_on_batch(bow)

    def inject_loss_fault(self, state: TrainState, loss) -> None:
        """Fault harness: corrupt the loss when the plan says so."""
        if state.faults is not None:
            state.faults.corrupt_loss(loss)

    def guard_loss(self, state: TrainState, loss) -> bool:
        """False (batch aborted) when the guard rejects a non-finite loss."""
        guard = state.guard
        if guard is not None and not guard.check_loss(loss.item()):
            guard.handle_fault("loss")
            return False
        return True

    def backward(self, loss) -> None:
        """Reverse pass: populate parameter gradients."""
        loss.backward()

    def inject_gradient_fault(self, state: TrainState, model) -> None:
        """Fault harness: blow up gradients when the plan says so."""
        if state.faults is not None:
            state.faults.corrupt_gradients(model.parameters())

    def clip_gradients(self, model) -> float:
        """Global-norm clipping; returns the pre-clip norm."""
        return clip_grad_norm(model.parameters(), model.config.grad_clip)

    def guard_gradients(self, state: TrainState, grad_norm: float) -> bool:
        """False (batch aborted) when the guard rejects the gradient norm."""
        guard = state.guard
        if guard is not None and not guard.check_gradients(grad_norm):
            guard.handle_fault("gradient")
            return False
        return True

    def apply_step(self, state: TrainState) -> None:
        """Optimizer update, then tell the guard the batch was clean."""
        state.optimizer.step()
        if state.guard is not None:
            state.guard.on_batch_ok()

    def train_batch(
        self, model, state: TrainState, bow: Batch
    ) -> tuple[dict[str, float], float] | None:
        """Run one batch through the pipeline.

        Returns ``(loss parts, pre-clip grad norm)``, or ``None`` when the
        guard skipped the batch (its statistics then stay out of the
        epoch averages, exactly as a skipped batch should).
        """
        self.zero_grad(state)
        loss, parts = self.compute_loss(model, bow)
        self.inject_loss_fault(state, loss)
        if not self.guard_loss(state, loss):
            return None
        self.backward(loss)
        self.inject_gradient_fault(state, model)
        grad_norm = self.clip_gradients(model)
        if not self.guard_gradients(state, grad_norm):
            return None
        self.apply_step(state)
        return parts, grad_norm

    # ------------------------------------------------------------------
    # epoch loop
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def fit(
        self,
        model,
        corpus: "Corpus",
        *,
        callbacks: Sequence["Callback"] = (),
        faults: FaultInjector | None = None,
        resume_from: str | Path | None = None,
    ):
        """Train ``model`` on ``corpus`` under this trainer's spec.

        ``callbacks``/``faults``/``resume_from`` are per-call extensions
        of (respectively: appended to, overriding, overriding) the
        corresponding spec settings.  Returns the model, fitted, with its
        :class:`TrainState` left attached as ``model._trainer``.
        """
        _check_contract(model)
        if corpus.vocab_size != model.vocab_size:
            raise ConfigError(
                f"corpus vocab {corpus.vocab_size} != model vocab "
                f"{model.vocab_size}"
            )
        run_callbacks = [*self.build_callbacks(), *self.callbacks, *callbacks]
        injector, owns_interrupts = self.build_faults(faults)

        model.train()
        if self.spec.objectives is not None:
            from repro.objectives.registry import attach_objectives

            # Before on_fit_start so the spec-built terms' prepare hooks
            # (NPMI kernels, idf tables, RNG seeding) see the corpus.
            attach_objectives(model, self.spec.objectives)
        model.on_fit_start(corpus)
        optimizer = self.build_optimizer(model)
        batch_rng = self.build_batch_rng(model)
        start_epoch = 0
        resume = resume_from if resume_from is not None else self.spec.resume_from
        if resume is not None:
            start_epoch = restore_training_state(model, resume, optimizer, batch_rng)
        state = TrainState(
            optimizer=optimizer,
            batch_rng=batch_rng,
            guard=self.build_guard(model, optimizer),
            faults=injector,
            epoch=start_epoch - 1,
        )
        model._trainer = state

        interrupts = (
            interrupted_writes(injector)
            if owns_interrupts
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

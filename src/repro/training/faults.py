"""Deterministic fault injection for the training runtime.

The recovery paths of :mod:`repro.training.resilience` (skip batch, LR
backoff, checkpoint restore, graceful degradation) only earn their keep if
they are exercised in CI rather than theoretical.  This module makes the
three failure modes the ContraTopic objective actually produces —
NaN/Inf losses from the Gumbel-softmax/NPMI kernel, exploding gradients,
and writes interrupted mid-checkpoint — injectable on demand:

* :class:`FaultPlan` declares *what* to inject (explicit batch steps
  and/or a seed-driven rate), so a plan replays identically across runs.
* :class:`FaultInjector` executes a plan: the trainer builds one from
  :attr:`repro.training.trainer.RunSpec.faults` and it corrupts
  losses/gradients at the planned steps.
* :func:`interrupted_writes` routes atomic write commits through the
  injector, simulating a crash after the bytes were written but before
  the rename published them — the final file must stay intact.  The
  ``interrupt_categories`` plan field picks which write categories are
  targeted (checkpoints by default; reports/baselines opt in).

The online inference service (:mod:`repro.serving`) injects its own
failure modes through the same harness: per-batch latency spikes,
NaN/Inf model outputs, worker death mid-batch
(:meth:`FaultInjector.on_serve_batch`), and corrupt checkpoint files at
hot-reload time (:meth:`FaultInjector.corrupt_checkpoint`).  Serving
draws use an RNG stream independent of the training stream, so enabling
serving chaos never shifts which *training* steps a plan injects at.

Everything is seed-driven (``numpy.random.default_rng``); no global state.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TYPE_CHECKING

import numpy as np

from repro import io as _io
from repro.errors import ConfigError, ReproError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.nn.module import Parameter
    from repro.tensor.tensor import Tensor


class InjectedFault(ReproError, RuntimeError):
    """Raised by the harness to simulate a crash (e.g. mid-checkpoint)."""


#: Spawn key separating the serving RNG stream from the training stream.
_SERVE_STREAM_KEY = 0x5E1F


@dataclass(frozen=True)
class ServeFault:
    """The injector's decision for one serving micro-batch attempt.

    ``latency_seconds`` > 0 asks the service to sleep before executing;
    ``nan_output`` corrupts the model's outputs after the forward pass;
    ``worker_death`` asks the executor shim to raise
    :class:`InjectedFault` mid-batch.  All three can fire on the same
    attempt.
    """

    latency_seconds: float = 0.0
    nan_output: bool = False
    worker_death: bool = False

    @property
    def any(self) -> bool:
        """True when at least one fault fires this attempt."""
        return self.latency_seconds > 0 or self.nan_output or self.worker_death


#: A decision with no faults, shared by the no-injector fast path.
NO_SERVE_FAULT = ServeFault()


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, replayable description of the faults to inject.

    ``*_steps`` name explicit 0-based batch steps (global across epochs);
    ``*_rate`` adds seed-driven Bernoulli injection on top.  A plan with
    the same fields and seed injects at exactly the same steps every run.
    """

    nan_loss_steps: tuple[int, ...] = ()
    nan_loss_rate: float = 0.0
    exploding_grad_steps: tuple[int, ...] = ()
    exploding_grad_rate: float = 0.0
    #: Multiplier applied to gradients at injection steps.  The default is
    #: large enough that the squared global norm overflows to +inf, which
    #: is what a genuine blow-up looks like to the finiteness guard.
    grad_scale: float = 1e200
    #: 0-based indices of atomic-write commits to interrupt (requires the
    #: :func:`interrupted_writes` context to be active).  Only commits
    #: whose category is listed in ``interrupt_categories`` are counted.
    interrupt_saves: tuple[int, ...] = ()
    #: Which :func:`repro.io.atomic_write` categories the interrupt plan
    #: targets: checkpoints only by default; add ``"report"`` to also
    #: crash BENCH-report/baseline publications.
    interrupt_categories: tuple[str, ...] = ("checkpoint",)
    #: Serving chaos — latency spikes: sleep ``serve_latency_seconds``
    #: before the named micro-batch attempts (and/or at a seeded rate).
    serve_latency_steps: tuple[int, ...] = ()
    serve_latency_rate: float = 0.0
    serve_latency_seconds: float = 0.05
    #: Serving chaos — overwrite the model's outputs with NaN for the
    #: named micro-batch attempts (the circuit breaker's trigger).
    serve_nan_steps: tuple[int, ...] = ()
    serve_nan_rate: float = 0.0
    #: Serving chaos — kill the worker mid-batch (raises
    #: :class:`InjectedFault` inside the batch executor; the service's
    #: retry-with-backoff path must absorb it).
    serve_death_steps: tuple[int, ...] = ()
    serve_death_rate: float = 0.0
    #: 0-based indices of checkpoint *loads* to corrupt: the file is
    #: truncated on disk just before the registry reads it, so the
    #: checksum validation must reject it and roll back to last-good.
    corrupt_checkpoint_loads: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "nan_loss_rate",
            "exploding_grad_rate",
            "serve_latency_rate",
            "serve_nan_rate",
            "serve_death_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {rate}")
        if self.grad_scale <= 1.0:
            raise ConfigError("grad_scale must exceed 1")
        if self.serve_latency_seconds < 0:
            raise ConfigError("serve_latency_seconds must be >= 0")
        if not self.interrupt_categories or not all(
            isinstance(c, str) and c for c in self.interrupt_categories
        ):
            raise ConfigError(
                "interrupt_categories must be a non-empty tuple of "
                "category names"
            )


class FaultInjector:
    """Executes a :class:`FaultPlan` against a live training loop.

    The fit loop calls :meth:`corrupt_loss` once per batch (advancing the
    injector's step counter) and :meth:`corrupt_gradients` after backward;
    checkpoint commits reach :meth:`on_commit` through the
    :func:`interrupted_writes` context.  ``counts`` tallies every injected
    fault, so tests can assert the harness actually fired.
    """

    def __init__(self, plan: FaultPlan | None = None, **plan_kwargs):
        if plan is not None and plan_kwargs:
            raise ConfigError("pass either a FaultPlan or keyword fields, not both")
        self.plan = plan or FaultPlan(**plan_kwargs)
        self._rng = np.random.default_rng(self.plan.seed)
        # Independent stream for serving draws: turning serving chaos on
        # or off must not shift which training steps the plan injects at.
        self._serve_rng = np.random.default_rng(
            np.random.SeedSequence((self.plan.seed, _SERVE_STREAM_KEY))
        )
        self._step = -1
        self._serve_step = -1
        self._commits = 0
        self._loads = 0
        self.counts = {
            "nan_loss": 0,
            "exploding_grad": 0,
            "interrupted_saves": 0,
            "serve_latency": 0,
            "serve_nan": 0,
            "serve_death": 0,
            "corrupted_loads": 0,
        }

    # ------------------------------------------------------------------
    def _planned(self, steps: Sequence[int], rate: float) -> bool:
        by_step = self._step in steps
        by_rate = rate > 0.0 and float(self._rng.random()) < rate
        return by_step or by_rate

    def corrupt_loss(self, loss: "Tensor") -> bool:
        """Advance one batch step; overwrite the loss with NaN if planned."""
        self._step += 1
        if not self._planned(self.plan.nan_loss_steps, self.plan.nan_loss_rate):
            return False
        loss.data = np.full_like(np.asarray(loss.data, dtype=np.float64), np.nan)
        self.counts["nan_loss"] += 1
        return True

    def corrupt_gradients(self, parameters: Iterable["Parameter"]) -> bool:
        """Scale every gradient by ``grad_scale`` if planned for this step."""
        if not self._planned(
            self.plan.exploding_grad_steps, self.plan.exploding_grad_rate
        ):
            return False
        for p in parameters:
            if p.grad is not None:
                p.grad = p.grad * self.plan.grad_scale
        self.counts["exploding_grad"] += 1
        return True

    def on_commit(self, category: str) -> None:
        """Commit hook: crash the planned atomic-write publications.

        Only commits whose ``category`` is listed in the plan's
        ``interrupt_categories`` advance the commit counter and can be
        interrupted — the default targets checkpoints only.
        """
        if category not in self.plan.interrupt_categories:
            return
        index = self._commits
        self._commits += 1
        if index in self.plan.interrupt_saves:
            self.counts["interrupted_saves"] += 1
            raise InjectedFault(
                f"injected crash during {category} commit #{index}"
            )

    # ------------------------------------------------------------------
    # serving chaos
    # ------------------------------------------------------------------
    def _serve_planned(self, steps: Sequence[int], rate: float) -> bool:
        by_step = self._serve_step in steps
        by_rate = rate > 0.0 and float(self._serve_rng.random()) < rate
        return by_step or by_rate

    def on_serve_batch(self) -> ServeFault:
        """Advance one serving attempt; return the faults to inject.

        The step counter advances per *attempt* (not per micro-batch), so
        a plan can fail attempt 0 and let the retry at attempt 1 succeed —
        which is exactly how the retry-with-backoff path is exercised
        deterministically.
        """
        self._serve_step += 1
        latency = 0.0
        if self._serve_planned(
            self.plan.serve_latency_steps, self.plan.serve_latency_rate
        ):
            latency = self.plan.serve_latency_seconds
            self.counts["serve_latency"] += 1
        nan = self._serve_planned(self.plan.serve_nan_steps, self.plan.serve_nan_rate)
        if nan:
            self.counts["serve_nan"] += 1
        death = self._serve_planned(
            self.plan.serve_death_steps, self.plan.serve_death_rate
        )
        if death:
            self.counts["serve_death"] += 1
        return ServeFault(
            latency_seconds=latency, nan_output=nan, worker_death=death
        )

    def corrupt_checkpoint(self, path) -> bool:
        """Truncate the planned checkpoint files just before a hot load.

        Called by :meth:`repro.serving.ModelRegistry.load` with the file
        about to be read.  When the current load index is planned, the
        file is truncated to half its size **on disk** (this is a chaos
        harness — hand it a copy, not your only checkpoint) so the
        content-checksum validation must reject it.  Returns True when
        the file was corrupted.
        """
        index = self._loads
        self._loads += 1
        if index not in self.plan.corrupt_checkpoint_loads:
            return False
        path = Path(path)
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
        self.counts["corrupted_loads"] += 1
        return True


@contextlib.contextmanager
def interrupted_writes(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Route atomic write commits through ``injector.on_commit``.

    While active, the commits named by ``plan.interrupt_saves`` (counted
    over the categories in ``plan.interrupt_categories`` — checkpoints by
    default, reports/baselines when listed) raise :class:`InjectedFault`
    *after* the tmp file was written but *before* the rename — exactly
    the window a real crash would hit.  The final path is guaranteed
    untouched (that is the property under test).
    """
    _io._COMMIT_HOOKS.append(injector.on_commit)
    try:
        yield injector
    finally:
        _io._COMMIT_HOOKS.remove(injector.on_commit)

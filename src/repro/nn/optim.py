"""First-order optimizers over :class:`~repro.nn.module.Parameter` lists.

Adam follows Kingma & Ba (2015) with bias correction, matching the paper's
training setup (Adam, lr = 5e-4).  SGD (with optional momentum and weight
decay) rounds out the set.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.nn.module import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total


def _pack_slot(
    state: dict[str, np.ndarray], name: str, arrays: Sequence[np.ndarray]
) -> None:
    """Store per-parameter slot arrays under ``name.<index>`` keys."""
    for i, arr in enumerate(arrays):
        state[f"{name}.{i}"] = np.array(arr, copy=True)


def _unpack_slot(
    state: dict[str, np.ndarray], name: str, parameters: Sequence[Parameter]
) -> list[np.ndarray]:
    """Read back a slot packed by :func:`_pack_slot`; validate shapes."""
    arrays: list[np.ndarray] = []
    for i, p in enumerate(parameters):
        key = f"{name}.{i}"
        if key not in state:
            raise ConfigError(f"optimizer state is missing {key!r}")
        # Slots adopt the parameter's dtype so float32 training resumed
        # from a float64 checkpoint (or vice versa) keeps its precision.
        arr = np.asarray(state[key], dtype=p.data.dtype)
        if arr.shape != p.data.shape:
            raise ConfigError(
                f"optimizer state shape mismatch for {key!r}: "
                f"{arr.shape} vs parameter {p.data.shape}"
            )
        arrays.append(arr.copy())
    return arrays


class Optimizer:
    """Base class: stores parameters, provides ``zero_grad``, counts steps.

    ``step_count`` is the number of completed :meth:`step` calls — free
    telemetry for throughput reports (updates/sec, updates/epoch).

    :meth:`state_dict` / :meth:`load_state_dict` snapshot and restore the
    full update state (learning rate, step counter, per-parameter slots
    such as Adam's moments) as plain arrays, so checkpoints can resume
    training bitwise-consistently (:mod:`repro.io`,
    :mod:`repro.training.resilience`).
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ConfigError("optimizer received no parameters")
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _save_slots(self, state: dict[str, np.ndarray]) -> None:
        """Subclass hook: add per-parameter slot arrays to ``state``."""

    def _load_slots(self, state: dict[str, np.ndarray]) -> None:
        """Subclass hook: restore what :meth:`_save_slots` stored."""

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot the optimizer's state as plain numpy arrays (copies)."""
        state: dict[str, np.ndarray] = {
            "lr": np.asarray(self.lr, dtype=np.float64),
            "step_count": np.asarray(self.step_count, dtype=np.int64),
        }
        self._save_slots(state)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot from :meth:`state_dict`; shapes must match."""
        for key in ("lr", "step_count"):
            if key not in state:
                raise ConfigError(f"optimizer state is missing {key!r}")
        self.lr = float(state["lr"])
        self.step_count = int(state["step_count"])
        self._load_slots(state)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self.step_count += 1
        for p, vel in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                grad = vel
            p.data = p.data - self.lr * grad

    def _save_slots(self, state: dict[str, np.ndarray]) -> None:
        _pack_slot(state, "velocity", self._velocity)

    def _load_slots(self, state: dict[str, np.ndarray]) -> None:
        self._velocity = _unpack_slot(state, "velocity", self.parameters)


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self.step_count += 1
        self._t += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self._t
        bias2 = 1.0 - beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _save_slots(self, state: dict[str, np.ndarray]) -> None:
        state["t"] = np.asarray(self._t, dtype=np.int64)
        _pack_slot(state, "m", self._m)
        _pack_slot(state, "v", self._v)

    def _load_slots(self, state: dict[str, np.ndarray]) -> None:
        if "t" not in state:
            raise ConfigError("optimizer state is missing 't'")
        self._t = int(state["t"])
        self._m = _unpack_slot(state, "m", self.parameters)
        self._v = _unpack_slot(state, "v", self.parameters)

"""Serving configuration: batch limits, deadlines, resilience knobs.

One frozen :class:`ServingConfig` travels through the whole serving
stack — the micro-batching front door, admission control, the retry
policy and the circuit breaker all read their limits from it.  It is
passed explicitly: :class:`~repro.serving.service.InferenceService`
takes it as ``config=`` and falls back to ``ServingConfig()``, the
built-in defaults, when none is given.  The module reads no environment
and holds no process-wide state.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Limits and windows of the online inference service.

    Attributes
    ----------
    max_batch_size:
        Upper bound on how many requests one micro-batch coalesces.
    max_wait_ms:
        Extra wait for more requests once the queue is empty.  The batcher
        always drains what is already queued (up to ``max_batch_size``)
        and, at the default 0, then dispatches at once; a positive window
        lets a partial batch linger up to this long after its first
        request for later arrivals.
    queue_capacity:
        Hard bound of the admission queue; a full queue sheds outright.
    shed_watermark:
        Fraction of ``queue_capacity`` above which new requests are shed
        immediately (admission control fires *before* the hard bound).
    deadline_ms:
        Default per-request deadline; a request whose deadline passes
        before its result is ready receives a ``timeout`` response.
    max_retries:
        How many times a failed micro-batch is retried (exponential
        backoff) before its requests get degraded responses.
    retry_backoff_ms / retry_backoff_factor:
        First backoff sleep and its per-attempt multiplier.
    breaker_threshold:
        Consecutive model faults (NaN/Inf outputs) that trip the circuit
        breaker open.
    breaker_cooldown_ms:
        How long the breaker stays open before letting one probe batch
        through (half-open).
    """

    max_batch_size: int = 64
    max_wait_ms: float = 0.0
    queue_capacity: int = 256
    shed_watermark: float = 0.75
    deadline_ms: float = 1000.0
    max_retries: int = 2
    retry_backoff_ms: float = 10.0
    retry_backoff_factor: float = 2.0
    breaker_threshold: int = 3
    breaker_cooldown_ms: float = 250.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ConfigError("max_wait_ms must be >= 0")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if not 0.0 < self.shed_watermark <= 1.0:
            raise ConfigError("shed_watermark must lie in (0, 1]")
        if self.deadline_ms <= 0:
            raise ConfigError("deadline_ms must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.retry_backoff_ms < 0:
            raise ConfigError("retry_backoff_ms must be >= 0")
        if self.retry_backoff_factor < 1.0:
            raise ConfigError("retry_backoff_factor must be >= 1")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_ms < 0:
            raise ConfigError("breaker_cooldown_ms must be >= 0")

    @property
    def shed_depth(self) -> int:
        """Queue depth (absolute) at which admission control sheds."""
        return max(1, int(self.queue_capacity * self.shed_watermark))

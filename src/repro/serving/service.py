"""The micro-batching inference front door and its resilience envelope.

:class:`InferenceService` is an asyncio service that turns many small
concurrent requests into few large model calls:

* **Micro-batching** — the worker takes the first queued request, drains
  every request already queued behind it (up to ``max_batch_size``)
  without suspending, and dispatches at once, so concurrent ``transform``
  requests share one forward pass through the sparse/``no_grad`` eval
  path instead of paying per-request model overhead.  An idle worker
  answers a lone request immediately; the next batch forms from whatever
  arrived during compute, and a backlog still fills batches to
  ``max_batch_size`` at one suspension per batch.  Only when
  ``max_wait_ms > 0`` and the queue runs empty does the worker wait on
  the event loop, up to that window, for more requests.
* **Admission control** — a bounded queue with a shed watermark: when the
  backlog crosses ``shed_watermark × queue_capacity`` (or the hard
  capacity), new requests are *shed* immediately with a well-formed
  response instead of queueing into certain deadline death.
* **Deadlines** — every request carries one; a request that expires in
  the queue, or whose batch finishes too late, receives a ``timeout``
  response.
* **Retries** — a batch that fails with an exception (a worker dying
  mid-batch, an injected crash) is retried with exponential backoff up to
  ``max_retries`` times before its requests get ``error`` responses.
* **Circuit breaking** — batch outputs are checked with the PR-2 guard
  predicate (:meth:`~repro.training.resilience.TrainingGuard.check_array`);
  NaN/Inf outputs are *model* faults, not transient ones: they are never
  retried, and ``breaker_threshold`` consecutive faults trip the
  :class:`~repro.serving.breaker.CircuitBreaker` open.  While open, every
  request is served from the degraded path (uniform θ for ``transform``,
  best-effort parameter reads otherwise) until a cooldown probe passes.

Every admitted request receives **exactly one** response — ``ok``,
``degraded``, ``timeout``, ``shed`` or ``error`` — no matter which
combination of faults the chaos harness injects; that invariant is the
acceptance bar of the chaos suite (``tests/serving/test_service.py``).

Request kinds
-------------
``transform``
    Payload: one document as a sequence of token ids (indexed against
    the service vocabulary).  Response value: the ``(K,)`` θ row.
``top_words``
    Payload: ``n`` (int, default 10).  Response value: top-``n`` word
    strings per topic.
``coherence``
    Payload ignored; requires the service to be built with an NPMI
    matrix.  Response value: per-topic NPMI coherence scores.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TYPE_CHECKING

import numpy as np

from repro.data.corpus import Corpus
from repro.errors import ServingError
from repro.serving.breaker import CLOSED, CircuitBreaker
from repro.serving.config import ServingConfig
from repro.serving.registry import ModelRegistry
from repro.training.resilience import TrainingGuard

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.data.vocabulary import Vocabulary
    from repro.metrics.npmi import NpmiMatrix
    from repro.telemetry.core import MetricsRegistry
    from repro.training.faults import FaultInjector

# Request kinds.
TRANSFORM = "transform"
TOP_WORDS = "top_words"
COHERENCE = "coherence"
KINDS = (TRANSFORM, TOP_WORDS, COHERENCE)

# Response statuses.  Every submitted request resolves to exactly one.
OK = "ok"
DEGRADED = "degraded"
TIMEOUT = "timeout"
SHED = "shed"
ERROR = "error"
STATUSES = (OK, DEGRADED, TIMEOUT, SHED, ERROR)

# Latency histogram geometry: log-spaced buckets, 20 per decade (each
# bucket spans a factor 10**(1/20) ≈ 1.12) from 1 µs to 100 s, plus one
# underflow and one overflow bucket.
_BUCKETS_PER_DECADE = 20
_HISTOGRAM_MIN_S = 1e-6
_HISTOGRAM_DECADES = 8
_NUM_BUCKETS = _HISTOGRAM_DECADES * _BUCKETS_PER_DECADE + 2
#: The value a bucket reports for its samples: the geometric midpoint of
#: an interior bucket, the midpoint of the underflow bucket and the lower
#: edge of the overflow bucket.
_BUCKET_VALUES = np.concatenate(
    (
        [_HISTOGRAM_MIN_S / 2],
        _HISTOGRAM_MIN_S
        * 10.0 ** ((np.arange(_NUM_BUCKETS - 2) + 0.5) / _BUCKETS_PER_DECADE),
        [_HISTOGRAM_MIN_S * 10.0**_HISTOGRAM_DECADES],
    )
)


class _LatencyHistogram:
    """Constant-memory record of durations in fixed log-spaced buckets.

    A percentile read from the buckets lies within one bucket (a factor
    ``10**(1/20)``) of the exact order statistic, however many samples
    were recorded.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts = [0] * _NUM_BUCKETS

    def record(self, seconds: float) -> None:
        if seconds < _HISTOGRAM_MIN_S:
            index = 0
        else:
            index = min(
                int(math.log10(seconds / _HISTOGRAM_MIN_S) * _BUCKETS_PER_DECADE) + 1,
                _NUM_BUCKETS - 1,
            )
        self.counts[index] += 1

    def percentiles(self, qs: Sequence[float]) -> list[float]:
        """The bucket value at each percentile in ``qs`` (zeros when empty)."""
        cumulative = np.cumsum(self.counts)
        total = int(cumulative[-1])
        if total == 0:
            return [0.0] * len(qs)
        ranks = np.rint(np.asarray(qs, dtype=float) / 100.0 * (total - 1))
        return _BUCKET_VALUES[np.searchsorted(cumulative, ranks, side="right")].tolist()


@dataclass(frozen=True)
class Request:
    """One client request: what to compute and how long it may take."""

    kind: str
    payload: Any = None
    #: Per-request deadline override (None → the config default).
    deadline_ms: float | None = None


@dataclass
class Response:
    """The service's answer; always well-formed, never an exception.

    ``status`` is one of :data:`STATUSES`; ``value`` is populated for
    ``ok`` and ``degraded``, ``error`` carries the failure text
    otherwise.  ``model_version`` names the registry version that
    answered (0 when no model ran).
    """

    status: str
    value: Any = None
    error: str | None = None
    latency_ms: float = 0.0
    batch_size: int = 0
    model_version: int = 0

    @property
    def ok(self) -> bool:
        """True for a full-quality answer."""
        return self.status == OK


@dataclass
class _Pending:
    """A queued request plus its resolution machinery."""

    request: Request
    future: asyncio.Future
    enqueued_at: float
    deadline_at: float
    done: bool = field(default=False, compare=False)


class InferenceService:
    """Micro-batching front door over a :class:`ModelRegistry`.

    Parameters
    ----------
    registry:
        The hot-loadable model registry.
    vocabulary:
        Vocabulary ``transform`` payloads are indexed against (must be
        the model's own).
    config:
        Limits and windows; defaults to ``ServingConfig()``.
    metrics:
        Optional :class:`~repro.telemetry.core.MetricsRegistry`; request
        counters, queue-depth samples and latencies flow into it under
        ``serving/*`` keys.
    faults:
        Optional chaos injector
        (:meth:`~repro.training.faults.FaultInjector.on_serve_batch`
        fires once per batch attempt).
    npmi_matrix:
        Optional NPMI matrix enabling ``coherence`` requests.
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        vocabulary: "Vocabulary",
        *,
        config: ServingConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
        faults: "FaultInjector | None" = None,
        npmi_matrix: "NpmiMatrix | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.registry = registry
        self._vocabulary = vocabulary
        self.config = config or ServingConfig()
        self.metrics = metrics
        self._faults = faults
        self._npmi = npmi_matrix
        self._clock = clock
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_seconds=self.config.breaker_cooldown_ms / 1000.0,
            clock=clock,
        )
        self.counts: dict[str, int] = {status: 0 for status in STATUSES}
        self.counts.update(
            requests=0,
            batches=0,
            retries=0,
            batch_failures=0,
            model_faults=0,
            breaker_trips=0,
            invalid=0,
        )
        self._latency = _LatencyHistogram()
        self._queue_wait = _LatencyHistogram()
        self._compute_time = _LatencyHistogram()
        self._batched_requests = 0
        self.max_queue_depth = 0
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the bounded queue and spawn the batching worker."""
        if self._running:
            raise ServingError("service is already running")
        self._queue = asyncio.Queue(maxsize=self.config.queue_capacity)
        self._running = True
        self._worker = asyncio.create_task(self._run())

    async def stop(self) -> None:
        """Drain every queued request (each gets its response), then stop."""
        if not self._running:
            return
        self._running = False
        # The sentinel lands behind every already-admitted request (FIFO),
        # so draining completes them all before the worker exits.
        await self._queue.put(None)
        await self._worker
        self._worker = None

    # ------------------------------------------------------------------
    # front door
    # ------------------------------------------------------------------
    async def submit(
        self,
        kind: str,
        payload: Any = None,
        deadline_ms: float | None = None,
    ) -> Response:
        """Submit one request and await its (always well-formed) response."""
        if not self._running:
            raise ServingError(
                "service is not running; await start() before submitting"
            )
        self._count("requests")
        reason = self._invalid_reason(kind, payload)
        if reason is not None:
            self._count("invalid")
            return self._record(Response(status=ERROR, error=reason))
        if kind == TOP_WORDS and payload is None:
            payload = 10
        depth = self._queue.qsize()
        self.max_queue_depth = max(self.max_queue_depth, depth)
        if self.metrics is not None:
            self.metrics.record_seconds("serving/queue_depth", depth, absolute=True)
        if depth >= self.config.shed_depth:
            return self._record(
                Response(
                    status=SHED,
                    error=f"queue depth {depth} over shed watermark "
                    f"{self.config.shed_depth}",
                )
            )
        now = self._clock()
        budget_ms = self.config.deadline_ms if deadline_ms is None else deadline_ms
        pending = _Pending(
            request=Request(kind=kind, payload=payload, deadline_ms=deadline_ms),
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline_at=now + budget_ms / 1000.0,
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            return self._record(
                Response(
                    status=SHED,
                    error=f"queue at hard capacity {self.config.queue_capacity}",
                )
            )
        return await pending.future

    async def submit_request(self, request: Request) -> Response:
        """Submit a :class:`Request` object (see :meth:`submit`)."""
        return await self.submit(
            request.kind, request.payload, deadline_ms=request.deadline_ms
        )

    def serve(
        self, requests: Sequence[Request], concurrency: int | None = None
    ) -> list[Response]:
        """Synchronous convenience: run every request through one loop.

        Starts the service, submits all requests concurrently (bounded by
        ``concurrency`` in-flight), drains, stops, and returns responses
        in request order.  For paced open-loop traffic use
        :func:`repro.serving.loadgen.run_load` instead.
        """

        async def _main() -> list[Response]:
            await self.start()
            limit = asyncio.Semaphore(concurrency or max(1, len(requests)))

            async def one(request: Request) -> Response:
                async with limit:
                    return await self.submit_request(request)

            try:
                return list(await asyncio.gather(*(one(r) for r in requests)))
            finally:
                await self.stop()

        return asyncio.run(_main())

    # ------------------------------------------------------------------
    # batching worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        assert self._queue is not None
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is None:
                if self._running:
                    continue
                break
            batch = [item]
            coalesce_until = self._clock() + self.config.max_wait_ms / 1000.0
            while len(batch) < self.config.max_batch_size:
                # Everything already queued joins without suspending; the
                # window only decides whether an empty queue is worth a
                # wait_for (a Task and a timer) before dispatching.
                if self._queue.empty():
                    remaining = coalesce_until - self._clock()
                    if remaining <= 0:
                        break
                    try:
                        extra = await asyncio.wait_for(self._queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                else:
                    extra = self._queue.get_nowait()
                if extra is None:
                    stopping = True
                    break
                batch.append(extra)
            groups: dict[str, list[_Pending]] = {}
            for pending in batch:
                groups.setdefault(pending.request.kind, []).append(pending)
            for kind, group in groups.items():
                try:
                    await self._execute(kind, group)
                except Exception as exc:
                    # Catch-all so nothing escaping the resilience envelope
                    # (a degraded-path model call, a metrics sink) can kill
                    # the worker and strand every queued future unresolved.
                    message = (
                        f"unexpected serving failure: "
                        f"{type(exc).__name__}: {exc}"
                    )
                    for pending in group:
                        failure = Response(
                            status=ERROR, error=message, batch_size=len(group)
                        )
                        try:
                            self._finish(pending, failure)
                        except Exception:
                            if not pending.future.done():
                                pending.future.set_result(failure)
            if stopping and self._running:
                # A stray sentinel (stop() raced a restart) — keep serving.
                stopping = False

    async def _execute(self, kind: str, batch: list[_Pending]) -> None:
        """Run one same-kind micro-batch through the resilience envelope."""
        self._count("batches")
        self._batched_requests += len(batch)
        now = self._clock()
        live = []
        for pending in batch:
            self._queue_wait.record(now - pending.enqueued_at)
            if pending.deadline_at <= now:
                self._finish(
                    pending,
                    Response(status=TIMEOUT, error="deadline expired in queue"),
                )
            else:
                live.append(pending)
        if not live:
            return
        size = len(live)
        if kind == TRANSFORM:
            allowed = self.breaker.allow_request()
        else:
            # Parameter reads never exercise the forward pass, so they
            # must never claim (and potentially leak) the half-open
            # probe — they just follow the breaker state, degrading
            # whenever it is not closed and leaving the probe slot for a
            # TRANSFORM batch that can actually render a verdict.
            allowed = self.breaker.state == CLOSED
        if not allowed:
            for pending in live:
                self._finish(pending, self._degraded(kind, pending, size))
            return

        attempt = 0
        backoff_s = self.config.retry_backoff_ms / 1000.0
        payloads = [p.request.payload for p in live]
        while True:
            fault = self._faults.on_serve_batch() if self._faults else None
            if fault is not None and fault.latency_seconds > 0:
                await asyncio.sleep(fault.latency_seconds)
            try:
                if fault is not None and fault.worker_death:
                    from repro.training.faults import InjectedFault

                    raise InjectedFault("injected worker death mid-batch")
                started = self._clock()
                values, version = self._compute(kind, payloads)
                self._compute_time.record(self._clock() - started)
            except Exception as exc:  # transient batch failure → retry
                self._count("batch_failures")
                attempt += 1
                if attempt > self.config.max_retries:
                    if kind == TRANSFORM:
                        # An infrastructure failure renders no verdict on
                        # model health: release any half-open probe this
                        # batch claimed so the slot cannot leak.
                        self.breaker.abort_probe()
                    message = f"{type(exc).__name__}: {exc}"
                    for pending in live:
                        self._finish(
                            pending,
                            Response(status=ERROR, error=message, batch_size=size),
                        )
                    return
                self._count("retries")
                await asyncio.sleep(backoff_s)
                backoff_s *= self.config.retry_backoff_factor
                continue
            if fault is not None and fault.nan_output and kind == TRANSFORM:
                values = [np.full_like(np.asarray(v, dtype=float), np.nan) for v in values]
            if kind == TRANSFORM and not TrainingGuard.check_array(values):
                # A model fault, not a transient one: retrying a NaN model
                # reproduces the NaN.  Count it against the breaker and
                # serve this batch degraded.
                self._count("model_faults")
                if self.breaker.record_fault():
                    self._count("breaker_trips")
                for pending in live:
                    self._finish(pending, self._degraded(kind, pending, size))
                return
            # Only forward-pass batches exercise the model, so only they
            # feed the breaker: a top_words parameter read succeeding says
            # nothing about whether the forward pass still emits NaN.
            if kind == TRANSFORM:
                self.breaker.record_success()
            for pending, value in zip(live, values):
                self._finish(
                    pending,
                    Response(
                        status=OK,
                        value=value,
                        batch_size=size,
                        model_version=version,
                    ),
                )
            return

    # ------------------------------------------------------------------
    # model calls
    # ------------------------------------------------------------------
    def _compute(self, kind: str, payloads: list) -> tuple[list, int]:
        """One model call answering a whole same-kind micro-batch."""
        model, version = self.registry.snapshot()
        if kind == TRANSFORM:
            corpus = Corpus(payloads, self._vocabulary)
            theta = model.transform(corpus)
            return list(theta), version
        if kind == TOP_WORDS:
            by_n: dict[int, list[list[str]]] = {}
            for n in payloads:
                if n not in by_n:
                    by_n[n] = model.top_words(self._vocabulary, n)
            return [by_n[n] for n in payloads], version
        # COHERENCE (kind already validated at submit)
        from repro.metrics.coherence import topic_npmi_scores

        scores = topic_npmi_scores(model.topic_word_matrix(), self._npmi)
        return [scores] * len(payloads), version

    def _degraded(self, kind: str, pending: _Pending, size: int) -> Response:
        """The answer served while the breaker is open.

        ``transform`` degrades to the uninformative uniform θ (an honest
        "no usable model right now"); ``top_words``/``coherence`` are
        pure parameter reads and degrade to a best-effort read of the
        current (last-good) parameters.
        """
        model, version = self.registry.snapshot()
        num_topics = model.config.num_topics
        if kind == TRANSFORM:
            value: Any = np.full(num_topics, 1.0 / num_topics)
        elif kind == TOP_WORDS:
            value = model.top_words(self._vocabulary, pending.request.payload)
        else:
            value = np.zeros(num_topics)
        return Response(
            status=DEGRADED,
            value=value,
            error="circuit breaker open: serving degraded answers",
            batch_size=size,
            model_version=version,
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _invalid_reason(self, kind: str, payload: Any) -> str | None:
        """Validate a request before admission; None when acceptable."""
        if kind not in KINDS:
            return f"unknown request kind {kind!r} (expected one of {KINDS})"
        if kind == TRANSFORM:
            try:
                tokens = np.asarray(payload if payload is not None else [])
            except (ValueError, TypeError) as exc:
                # Ragged nesting, or an object numpy cannot read as an array.
                return f"transform payload is not a flat sequence of token ids: {exc}"
            if tokens.ndim != 1 or tokens.size == 0:
                return "transform payload must be a non-empty sequence of token ids"
            if not np.issubdtype(tokens.dtype, np.integer):
                return "transform payload must contain integer token ids"
            vocab_size = len(self._vocabulary)
            if tokens.min() < 0 or tokens.max() >= vocab_size:
                return (
                    f"transform payload has token ids outside [0, {vocab_size})"
                )
        elif kind == TOP_WORDS:
            if payload is not None and (not isinstance(payload, int) or payload < 1):
                return "top_words payload must be a positive int (or None)"
        elif kind == COHERENCE and self._npmi is None:
            return "coherence requests need a service built with npmi_matrix="
        return None

    def _finish(self, pending: _Pending, response: Response) -> None:
        """Resolve one request exactly once, applying the deadline check."""
        if pending.done:
            return
        pending.done = True
        now = self._clock()
        if response.status in (OK, DEGRADED) and now > pending.deadline_at:
            response = Response(
                status=TIMEOUT,
                error="deadline expired during batch execution",
                batch_size=response.batch_size,
                model_version=response.model_version,
            )
        response.latency_ms = (now - pending.enqueued_at) * 1000.0
        self._record(response, latency_s=now - pending.enqueued_at)
        if not pending.future.done():
            pending.future.set_result(response)

    def _record(self, response: Response, latency_s: float | None = None) -> Response:
        self._count(response.status)
        if latency_s is not None:
            self._latency.record(latency_s)
            if self.metrics is not None:
                self.metrics.record_seconds(
                    "serving/latency", latency_s, absolute=True
                )
        return response

    def _count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        if self.metrics is not None:
            self.metrics.count(f"serving/{name}", absolute=True)

    def stats(self) -> dict:
        """Scalar summary: counts, latency, queue-wait and compute-time
        percentiles, batch sizes, breaker/registry.

        Percentiles come from the fixed-bucket histograms, so they are
        exact to within one bucket (a factor ``10**(1/20)``).
        """
        latency = self._latency.percentiles((50, 95, 99))
        wait = self._queue_wait.percentiles((50, 95, 99))
        compute = self._compute_time.percentiles((50, 95, 99))
        responded = sum(self.counts[status] for status in STATUSES)
        batches = self.counts["batches"]
        return {
            **{f"count_{k}": v for k, v in self.counts.items()},
            "responded": responded,
            "unanswered": self.counts["requests"] - responded,
            "p50_seconds": latency[0],
            "p95_seconds": latency[1],
            "p99_seconds": latency[2],
            "queue_wait_p50_seconds": wait[0],
            "queue_wait_p95_seconds": wait[1],
            "queue_wait_p99_seconds": wait[2],
            "compute_p50_seconds": compute[0],
            "compute_p95_seconds": compute[1],
            "compute_p99_seconds": compute[2],
            "batch_size_mean": self._batched_requests / batches if batches else 0.0,
            "max_queue_depth": self.max_queue_depth,
            "breaker_state": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "breaker_probes": self.breaker.probes,
            "model_version": self.registry.version,
            "model_reloads": self.registry.reloads,
            "model_rollbacks": self.registry.rollbacks,
        }

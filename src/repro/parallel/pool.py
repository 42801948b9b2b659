"""Process-parallel execution of independent train/evaluate tasks.

The paper's protocol is dominated by *embarrassingly parallel* outer
loops: five seeds per reported metric (§V.F), a (λ, v) grid per dataset
(§V.D), and a dozen independent experiment sections in the full runner.
:class:`ParallelMap` fans those loops out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping three
guarantees the serial loops already had:

* **Determinism** — every task carries its own explicit seed (derived via
  :func:`repro.training.seed.spawn_task_seed` when not already explicit),
  so results are identical regardless of worker count or completion
  order.  ``workers=1`` does not even build a pool: it runs the tasks
  in-process, in submission order — the exact serial path, bit for bit.
* **Fault isolation** — an exception inside a task (including a
  NaN-divergence escalated to :class:`~repro.errors.TrainingDivergedError`
  or an injected fault from :mod:`repro.training.faults`) becomes a
  recorded per-task failure in the returned :class:`TaskResult`, not an
  abort of the whole fan-out.  Only when *every* task failed does
  :meth:`ParallelMap.map` raise (via callers checking
  :func:`require_any_success`).
* **Telemetry** — each task runs under its own
  :class:`~repro.telemetry.MetricsRegistry` whose snapshot ships back
  with the result; the parent merges the snapshots idempotently, so the
  stage tables of ``BENCH_*.json`` stay populated under parallelism.

Worker-count resolution order: explicit argument > ``REPRO_WORKERS``
environment variable > ``os.cpu_count()``.

Implementation note — why ``fork``: the fan-out sites pass closures
(model factories bound to corpora and NPMI matrices) that are not
picklable, and the corpora themselves are large enough that re-shipping
them per task would dominate the win.  Tasks are therefore stashed in a
module-level registry and the pool is created with the ``fork`` start
method, so children inherit the registry (and every already-loaded
corpus page) by copy-on-write; only the integer task index crosses the
pipe.  Every task, serial or forked, runs on one OpenBLAS thread
(:func:`repro.blas.one_blas_thread`): N workers each running a CPU-wide
BLAS pool would oversubscribe the machine, and a GEMM's bits can depend
on its thread count, so both paths must use the same one.  On platforms
without ``fork`` (Windows, macOS under ``spawn``)
the map transparently degrades to the serial path and records the
fallback under the ``parallel/serial_fallback`` counter.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar

from repro.blas import one_blas_thread
from repro.errors import ConfigError, ParallelExecutionError
from repro.telemetry.core import MetricsRegistry

T = TypeVar("T")

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Scoped timer key every task's wall time is recorded under (in the
#: task's own registry, and therefore — after the merge — in the parent's).
TASK_TIMER_KEY = "parallel/task"

# Fan-outs in flight, keyed by a per-map token.  Populated *before* the
# pool forks so children inherit the (unpicklable) task callables through
# copy-on-write memory; only ``(token, index)`` is ever pickled.
_TASK_GROUPS: dict[str, tuple[Callable[[Any], Any], list]] = {}


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Containerized CI commonly pins the process to a subset of the host's
    cores; ``os.cpu_count()`` reports the host and oversubscribes.  The
    scheduler affinity mask (``os.sched_getaffinity(0)``, Linux) is the
    honest figure; platforms without it fall back to ``cpu_count()``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return os.cpu_count() or 1


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the effective worker count.

    ``workers`` wins when given; otherwise the ``REPRO_WORKERS``
    environment variable; otherwise :func:`available_cpus` (the CPU
    affinity mask where the platform exposes one).  The result is always
    >= 1; zero/negative values are configuration errors.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is not None and raw.strip():
            try:
                workers = int(raw)
            except ValueError:
                raise ConfigError(
                    f"{WORKERS_ENV}={raw!r} is not an integer"
                ) from None
        else:
            return available_cpus()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return int(workers)


def fork_available() -> bool:
    """Whether the ``fork`` start method (required for the pool) exists."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class TaskResult:
    """Outcome of one task of a parallel map, success or failure.

    ``value`` holds the task's return value when ``ok``; ``error`` holds
    ``"ExcType: message"`` otherwise, with the worker-side traceback text
    in ``traceback`` (fan-out sites used to surface only the exception
    type, which made crashed workers undebuggable from the parent).
    ``telemetry`` is the snapshot of the task-local
    :class:`~repro.telemetry.MetricsRegistry` (present in both cases — a
    failing task's partial timings are still shipped).
    """

    index: int
    value: Any = None
    error: str | None = None
    error_type: str | None = None
    seconds: float = 0.0
    pid: int = 0
    telemetry: dict | None = field(default=None, repr=False)
    traceback: str | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        """The task's value; raises :class:`ParallelExecutionError` if it failed."""
        if not self.ok:
            detail = f"\n{self.traceback}" if self.traceback else ""
            raise ParallelExecutionError(
                f"task {self.index} failed: {self.error}{detail}"
            )
        return self.value


def _execute(fn: Callable[[Any], Any], item: Any, index: int) -> TaskResult:
    """Run one task under fault isolation, a task-local registry and one
    BLAS thread.

    This is the *only* execution path — the serial mode and every pool
    worker call it — so failure semantics and telemetry shape cannot
    drift between worker counts.
    """
    registry = MetricsRegistry()
    start = time.perf_counter()
    try:
        with one_blas_thread(), registry.timer(TASK_TIMER_KEY):
            value = fn(item)
        return TaskResult(
            index=index,
            value=value,
            seconds=time.perf_counter() - start,
            pid=os.getpid(),
            telemetry=registry.snapshot(),
        )
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        return TaskResult(
            index=index,
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__,
            seconds=time.perf_counter() - start,
            pid=os.getpid(),
            telemetry=registry.snapshot(),
            traceback=traceback.format_exc(),
        )


def _execute_grouped(token: str, index: int) -> TaskResult:
    """Pool-worker entry point: look the task up in the forked registry."""
    fn, items = _TASK_GROUPS[token]
    return _execute(fn, items[index], index)


class ParallelMap:
    """Map a function over independent items across worker processes.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` resolves via :func:`resolve_workers`
        (``REPRO_WORKERS`` env var, then ``os.cpu_count()``).  ``1``
        selects the in-process serial path.
    registry:
        Parent :class:`~repro.telemetry.MetricsRegistry` the per-task
        snapshots are merged into (idempotently), plus fan-out counters
        (``parallel/tasks``, ``parallel/failures``, ...).  Optional.
    """

    def __init__(
        self, workers: int | None = None, registry: MetricsRegistry | None = None
    ):
        self.workers = resolve_workers(workers)
        self.registry = registry

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], T], items: Sequence[Any]) -> list[TaskResult]:
        """Run ``fn`` over ``items``; results come back in item order.

        Never raises for an individual task — inspect each
        :class:`TaskResult`.  Use :func:`require_any_success` when at
        least one success is mandatory.
        """
        items = list(items)
        if not items:
            return []
        serial = self.workers == 1 or len(items) == 1
        if not serial and not fork_available():  # pragma: no cover - platform
            serial = True
            if self.registry is not None:
                self.registry.count("parallel/serial_fallback", absolute=True)
        start = time.perf_counter()
        if serial:
            results = [_execute(fn, item, i) for i, item in enumerate(items)]
        else:
            results = self._map_processes(fn, items)
        self._record(results, time.perf_counter() - start)
        return results

    # ------------------------------------------------------------------
    def _map_processes(
        self, fn: Callable[[Any], Any], items: list
    ) -> list[TaskResult]:
        token = uuid.uuid4().hex
        _TASK_GROUPS[token] = (fn, items)
        context = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(items)), mp_context=context
            ) as pool:
                futures = [
                    pool.submit(_execute_grouped, token, i)
                    for i in range(len(items))
                ]
                results: list[TaskResult] = []
                for i, future in enumerate(futures):
                    try:
                        results.append(future.result())
                    except BrokenProcessPool as exc:
                        # A worker died outside Python (segfault, OOM
                        # kill): everything still pending fails, but as
                        # recorded failures, not an abort of the map.
                        results.append(
                            TaskResult(
                                index=i,
                                error=f"BrokenProcessPool: {exc}",
                                error_type="BrokenProcessPool",
                            )
                        )
        finally:
            _TASK_GROUPS.pop(token, None)
        return results

    # ------------------------------------------------------------------
    def _record(self, results: list[TaskResult], elapsed: float) -> None:
        if self.registry is None:
            return
        self.registry.record_seconds("parallel/map", elapsed, absolute=True)
        self.registry.count("parallel/tasks", len(results), absolute=True)
        failures = sum(not r.ok for r in results)
        if failures:
            self.registry.count("parallel/failures", failures, absolute=True)
        # Last-used worker count (a gauge, not a tally).
        self.registry.counter("parallel/workers", absolute=True).value = float(
            self.workers
        )
        for result in results:
            if result.telemetry is not None:
                self.registry.merge_snapshot(result.telemetry)


def parallel_map(
    fn: Callable[[Any], T],
    items: Sequence[Any],
    workers: int | None = None,
    registry: MetricsRegistry | None = None,
) -> list[TaskResult]:
    """Functional shorthand for ``ParallelMap(...).map(fn, items)``."""
    return ParallelMap(workers=workers, registry=registry).map(fn, items)


def require_any_success(results: Sequence[TaskResult], what: str) -> list[TaskResult]:
    """Return the successful results; raise if every task failed."""
    ok = [r for r in results if r.ok]
    if not ok and results:
        details = "; ".join(
            f"task {r.index}: {r.error}" for r in results[:5]
        )
        raise ParallelExecutionError(f"every {what} task failed ({details})")
    return ok

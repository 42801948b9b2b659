"""Process-parallel execution layer for multi-seed / grid / experiment fan-out.

See :mod:`repro.parallel.pool` for the execution model and
``docs/PARALLELISM.md`` for the API, seeding guarantees, failure
semantics and telemetry-merge behaviour.
"""

from repro.parallel.pool import (
    TASK_TIMER_KEY,
    WORKERS_ENV,
    ParallelMap,
    TaskResult,
    available_cpus,
    fork_available,
    parallel_map,
    require_any_success,
    resolve_workers,
)

__all__ = [
    "TASK_TIMER_KEY",
    "WORKERS_ENV",
    "ParallelMap",
    "TaskResult",
    "available_cpus",
    "fork_available",
    "parallel_map",
    "require_any_success",
    "resolve_workers",
]

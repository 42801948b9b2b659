"""The process-parallel execution layer (``repro.parallel``)."""

import os

import numpy as np
import pytest

from repro.blas import blas_threads, set_blas_threads
from repro.errors import ConfigError, ParallelExecutionError
from repro.parallel import (
    TASK_TIMER_KEY,
    WORKERS_ENV,
    ParallelMap,
    available_cpus,
    parallel_map,
    require_any_success,
    resolve_workers,
)
from repro.telemetry import MetricsRegistry


def _square(x):
    return x * x


def _square_or_raise(x):
    if x % 3 == 0:
        raise ValueError(f"refusing {x}")
    return x * x


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_default_is_available_cpus(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == available_cpus()

    def test_blank_env_falls_through(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "  ")
        assert resolve_workers(None) == available_cpus()

    def test_env_never_latches(self, monkeypatch):
        """Each call re-reads the environment: removing the variable
        removes its effect (same contract as REPRO_SPARSE)."""
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert resolve_workers(None) == 2
        monkeypatch.delenv(WORKERS_ENV)
        assert resolve_workers(None) == available_cpus()

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ConfigError):
            resolve_workers(None)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_rejected(self, bad, monkeypatch):
        with pytest.raises(ConfigError):
            resolve_workers(bad)
        monkeypatch.setenv(WORKERS_ENV, str(bad))
        with pytest.raises(ConfigError):
            resolve_workers(None)


class TestAvailableCpus:
    def test_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        # Containerized CI pins the process to a subset of the host's
        # cores; the affinity mask is the honest figure.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert available_cpus() == 3
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert available_cpus() == (os.cpu_count() or 1)

    def test_never_below_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set())
        assert available_cpus() == 1


class TestSerialPath:
    def test_values_in_item_order(self):
        results = parallel_map(_square, [3, 1, 4, 1, 5], workers=1)
        assert [r.value for r in results] == [9, 1, 16, 1, 25]
        assert [r.index for r in results] == [0, 1, 2, 3, 4]
        assert all(r.ok for r in results)

    def test_runs_in_this_process(self):
        results = parallel_map(_square, [1, 2], workers=1)
        assert {r.pid for r in results} == {os.getpid()}

    def test_empty_items(self):
        assert parallel_map(_square, [], workers=1) == []

    def test_closures_are_fine(self):
        offset = 10
        results = parallel_map(lambda x: x + offset, [1, 2], workers=1)
        assert [r.value for r in results] == [11, 12]


class TestProcessPath:
    def test_values_match_serial(self):
        serial = parallel_map(_square, list(range(8)), workers=1)
        parallel = parallel_map(_square, list(range(8)), workers=4)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [r.index for r in parallel] == list(range(8))

    def test_runs_in_child_processes(self):
        results = parallel_map(_square, [1, 2, 3, 4], workers=2)
        assert os.getpid() not in {r.pid for r in results}

    def test_closures_cross_the_fork(self):
        # The fan-out sites pass lambdas bound to corpora/NPMI matrices —
        # unpicklable; the fork + stash design must carry them anyway.
        big = np.arange(1000.0)
        results = parallel_map(lambda i: float(big[i]) * 2, [5, 7], workers=2)
        assert [r.value for r in results] == [10.0, 14.0]

    def test_single_item_stays_serial(self):
        results = parallel_map(_square, [6], workers=4)
        assert results[0].pid == os.getpid()

    @pytest.mark.skipif(blas_threads() is None, reason="no bundled OpenBLAS")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_task_runs_one_blas_thread(self, workers):
        before = blas_threads()
        set_blas_threads(2)  # a multi-threaded parent, as on a 2+ CPU host
        try:
            results = parallel_map(
                lambda _: blas_threads(), [0, 1, 2, 3], workers=workers
            )
            parent = blas_threads()
        finally:
            set_blas_threads(before)
        assert [r.value for r in results] == [1, 1, 1, 1]
        assert parent == 2  # the parent keeps its own count


class TestFaultIsolation:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_failures_recorded_not_raised(self, workers):
        results = parallel_map(_square_or_raise, list(range(6)), workers=workers)
        by_ok = {r.index: r.ok for r in results}
        assert by_ok == {0: False, 1: True, 2: True, 3: False, 4: True, 5: True}
        failed = results[3]
        assert failed.error == "ValueError: refusing 3"
        assert failed.error_type == "ValueError"
        assert failed.value is None
        with pytest.raises(ParallelExecutionError):
            failed.unwrap()
        assert results[1].unwrap() == 1

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failure_carries_the_worker_traceback(self, workers):
        # The parent must be able to debug a crashed task without
        # re-running it: the worker-side traceback text ships with the
        # result and surfaces through unwrap().
        results = parallel_map(_square_or_raise, list(range(4)), workers=workers)
        failed = results[3]
        assert "Traceback (most recent call last)" in failed.traceback
        assert "ValueError: refusing 3" in failed.traceback
        assert "_square_or_raise" in failed.traceback
        assert results[1].traceback is None
        with pytest.raises(ParallelExecutionError, match="refusing 3") as excinfo:
            failed.unwrap()
        assert "Traceback" in str(excinfo.value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_task_still_ships_telemetry(self, workers):
        results = parallel_map(_square_or_raise, [0, 1], workers=workers)
        assert results[0].telemetry is not None
        assert TASK_TIMER_KEY in results[0].telemetry["timers"]

    def test_require_any_success(self):
        results = parallel_map(_square_or_raise, [1, 3], workers=1)
        ok = require_any_success(results, "demo")
        assert [r.value for r in ok] == [1]
        all_bad = parallel_map(_square_or_raise, [0, 3], workers=1)
        with pytest.raises(ParallelExecutionError, match="every demo task"):
            require_any_success(all_bad, "demo")
        assert require_any_success([], "demo") == []


class TestTelemetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counters_and_merged_task_timers(self, workers):
        registry = MetricsRegistry()
        ParallelMap(workers=workers, registry=registry).map(
            _square_or_raise, list(range(4))
        )
        assert registry.counters["parallel/tasks"].value == 4
        assert registry.counters["parallel/failures"].value == 2
        assert registry.counters["parallel/workers"].value == workers
        assert registry.timers["parallel/map"].count == 1
        # every task's wall time was merged back, fast or failed
        assert registry.timers[TASK_TIMER_KEY].count == 4

    def test_workers_counter_is_a_gauge(self):
        registry = MetricsRegistry()
        pm = ParallelMap(workers=2, registry=registry)
        pm.map(_square, [1, 2])
        pm.map(_square, [3, 4])
        assert registry.counters["parallel/workers"].value == 2

    def test_no_registry_is_fine(self):
        assert parallel_map(_square, [2], workers=1)[0].value == 4


class TestDeterministicSeeding:
    def test_spawn_task_seed_stable_and_distinct(self):
        from repro.training import spawn_task_rng, spawn_task_seed

        seeds = [spawn_task_seed(42, i) for i in range(6)]
        assert seeds == [spawn_task_seed(42, i) for i in range(6)]
        assert len(set(seeds)) == 6
        assert spawn_task_seed(42, 0, stream=1) != seeds[0]
        a = spawn_task_rng(42, 3).random(4)
        np.testing.assert_array_equal(a, spawn_task_rng(42, 3).random(4))

    def test_task_seeds_independent_of_worker_count(self):
        from repro.training import spawn_task_seed

        def draw(i):
            return np.random.default_rng(spawn_task_seed(7, i)).random(3).tolist()

        serial = [r.value for r in parallel_map(draw, list(range(6)), workers=1)]
        parallel = [r.value for r in parallel_map(draw, list(range(6)), workers=3)]
        assert serial == parallel

    def test_no_collisions_across_task_and_stream_grid(self):
        from repro.training import spawn_task_seed

        seeds = {
            spawn_task_seed(0, task, stream=stream)
            for task in range(1024)
            for stream in range(4)
        }
        assert len(seeds) == 1024 * 4

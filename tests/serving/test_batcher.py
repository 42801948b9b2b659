"""The batching worker: how requests coalesce, deterministically.

The worker takes the first request, drains every request already queued
behind it (up to ``max_batch_size``) without suspending, and dispatches.
It waits on the event loop (``asyncio.wait_for``) only when the queue is
empty and ``max_wait_ms > 0``; at the default window of 0 an idle worker
answers a lone request at once.  These tests pin that, a backlog served
in full batches with and without a window, the window itself (under an
injected clock, with no real timer involved), the per-batch compute time
apart from queue wait, a ``stop()`` landing mid-drain, and the
constant-memory latency record.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math

import numpy as np
import pytest

from repro.serving import InferenceService, ServingConfig
from repro.serving import service as service_module
from repro.serving.service import TRANSFORM


def document(corpus, i=0):
    return [int(t) for t in corpus.documents[i % len(corpus.documents)]]


def batch_sizes(responses):
    return [r.batch_size for r in responses]


class TestQueuedRequestsDrainWithoutWaiting:
    @pytest.mark.parametrize("window", ["1ms", "none", "default"])
    @pytest.mark.parametrize("n", [8, 24, 19])
    def test_backlog_is_served_in_full_batches(
        self, registry, tiny_corpus, fast_serving_config, monkeypatch, n, window
    ):
        config = {
            "1ms": fast_serving_config,
            "none": dataclasses.replace(fast_serving_config, max_wait_ms=0.0),
            "default": ServingConfig(),
        }[window]
        service = InferenceService(registry, tiny_corpus.vocabulary, config=config)
        real_wait_for = asyncio.wait_for
        depths_at_wait = []

        async def spy(aw, timeout):
            depths_at_wait.append(service._queue.qsize())
            return await real_wait_for(aw, timeout)

        monkeypatch.setattr(service_module.asyncio, "wait_for", spy)

        async def main():
            await service.start()
            try:
                # The worker task runs first and blocks on the empty queue;
                # every submit then enqueues before it wakes up.
                return await asyncio.gather(
                    *(service.submit(TRANSFORM, document(tiny_corpus, i)) for i in range(n))
                )
            finally:
                await service.stop()

        responses = asyncio.run(main())
        limit = config.max_batch_size
        full, rest = divmod(n, limit)
        assert all(r.ok for r in responses)
        assert service.counts["batches"] == math.ceil(n / limit)
        assert batch_sizes(responses) == [limit] * (full * limit) + [rest] * rest
        assert depths_at_wait == [0] * len(depths_at_wait)
        if rest == 0 or config.max_wait_ms == 0:
            assert depths_at_wait == []


class VirtualClock:
    """A clock that only moves when a test moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestIdleWorkerAnswersAtOnce:
    def test_default_config_answers_a_lone_request_without_waiting(
        self, registry, tiny_corpus, monkeypatch
    ):
        clock = VirtualClock()
        service = InferenceService(
            registry, tiny_corpus.vocabulary, config=ServingConfig(), clock=clock
        )
        waits = []

        async def virtual_wait_for(aw, timeout):
            # A window would pass here, in virtual time, with no arrival.
            waits.append(timeout)
            clock.now += timeout
            aw.close()
            raise asyncio.TimeoutError

        monkeypatch.setattr(service_module.asyncio, "wait_for", virtual_wait_for)

        async def main():
            await service.start()
            try:
                return await service.submit(TRANSFORM, document(tiny_corpus))
            finally:
                await service.stop()

        response = asyncio.run(main())
        assert response.ok
        assert response.batch_size == 1
        assert response.latency_ms == 0.0
        assert waits == []


class TestWindowUnderAnInjectedClock:
    def test_arrival_inside_the_window_joins_and_after_it_starts_a_batch(
        self, registry, tiny_corpus, monkeypatch
    ):
        clock = VirtualClock()
        config = ServingConfig(max_batch_size=8, max_wait_ms=5.0, deadline_ms=1000.0)
        service = InferenceService(
            registry, tiny_corpus.vocabulary, config=config, clock=clock
        )
        # Seconds: the first arrival opens a window to 5 ms, the one at
        # 3 ms joins it, the one at 7 ms misses it and opens the next.
        due = [0.000, 0.003, 0.007]
        answers = []

        def arrive() -> None:
            clock.now = due.pop(0)
            answers.append(asyncio.ensure_future(service.submit(TRANSFORM, document(tiny_corpus))))

        async def virtual_wait_for(aw, timeout):
            # Virtual time passes only here: the next arrival lands when it
            # is due inside the timeout, otherwise the timeout expires.
            if due and due[0] <= clock.now + timeout:
                arrive()
                return await aw
            clock.now += timeout
            aw.close()
            raise asyncio.TimeoutError

        monkeypatch.setattr(service_module.asyncio, "wait_for", virtual_wait_for)

        async def main():
            await service.start()
            try:
                while due:
                    arrive()
                    while not all(a.done() for a in answers):
                        await asyncio.gather(*answers)
            finally:
                await service.stop()
            return [a.result() for a in answers]

        responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert batch_sizes(responses) == [2, 2, 1]
        assert service.counts["batches"] == 2
        # Each answer lands when its window closes: at 5 ms and 12 ms.
        np.testing.assert_allclose([r.latency_ms for r in responses], [5.0, 2.0, 5.0])


class TestComputeTimeUnderAnInjectedClock:
    def test_each_batch_compute_is_recorded_apart_from_queue_wait(
        self, registry, tiny_corpus, monkeypatch
    ):
        clock = VirtualClock()
        config = ServingConfig(max_batch_size=4, max_wait_ms=5.0, deadline_ms=1000.0)
        service = InferenceService(
            registry, tiny_corpus.vocabulary, config=config, clock=clock
        )
        # Seconds each batch's model call takes: the last one is slow.
        durations = [0.002, 0.002, 0.040]
        real_compute = service._compute

        def slow_compute(kind, payloads):
            clock.now += durations[service.counts["batches"] - 1]
            return real_compute(kind, payloads)

        monkeypatch.setattr(service, "_compute", slow_compute)

        async def main():
            await service.start()
            try:
                # Twelve queued requests: three full batches, no window.
                return await asyncio.gather(
                    *(service.submit(TRANSFORM, document(tiny_corpus, i)) for i in range(12))
                )
            finally:
                await service.stop()

        responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert batch_sizes(responses) == [4] * 12
        stats = service.stats()
        bucket = 10.0 ** (1.0 / service_module._BUCKETS_PER_DECADE)
        # Nearest-rank percentiles of [2, 2, 40] ms.
        for q, exact in ((50, 0.002), (95, 0.040), (99, 0.040)):
            assert exact / bucket <= stats[f"compute_p{q}_seconds"] <= exact * bucket, q
        # The third batch waited behind two 2 ms computes, not its own 40.
        assert 0.004 / bucket <= stats["queue_wait_p99_seconds"] <= 0.004 * bucket
        assert 0.044 / bucket <= stats["p99_seconds"] <= 0.044 * bucket


class TestStopMidDrain:
    def test_stop_behind_a_backlog_answers_every_request_once(
        self, registry, tiny_corpus, fast_serving_config
    ):
        service = InferenceService(
            registry, tiny_corpus.vocabulary, config=fast_serving_config
        )
        n = 20

        async def main():
            await service.start()
            submits = [
                asyncio.ensure_future(service.submit(TRANSFORM, document(tiny_corpus, i)))
                for i in range(n)
            ]
            # One loop pass: the worker blocks on the empty queue, then all
            # twenty enqueue.  The stop sentinel lands behind them before
            # the worker wakes.
            await asyncio.sleep(0)
            await service.stop()
            return await asyncio.gather(*submits)

        responses = asyncio.run(main())
        stats = service.stats()
        assert all(r.ok for r in responses)
        assert batch_sizes(responses) == [8] * 16 + [4] * 4
        assert stats["responded"] == stats["count_requests"] == n
        assert stats["unanswered"] == 0

    def test_stop_while_the_window_waits_ends_the_batch(
        self, registry, tiny_corpus, monkeypatch
    ):
        # A window far longer than the test: only the stop sentinel can
        # end this batch.
        config = ServingConfig(max_batch_size=8, max_wait_ms=60_000.0, deadline_ms=120_000.0)
        service = InferenceService(registry, tiny_corpus.vocabulary, config=config)
        real_wait_for = asyncio.wait_for

        async def main():
            waiting = asyncio.Event()

            async def spy(aw, timeout):
                waiting.set()
                return await real_wait_for(aw, timeout)

            monkeypatch.setattr(service_module.asyncio, "wait_for", spy)
            await service.start()
            submits = [
                asyncio.ensure_future(service.submit(TRANSFORM, document(tiny_corpus, i)))
                for i in range(3)
            ]
            await waiting.wait()
            await real_wait_for(service.stop(), 10.0)
            return await asyncio.gather(*submits)

        responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert batch_sizes(responses) == [3, 3, 3]
        assert service.stats()["unanswered"] == 0


class TestBoundedLatencyRecord:
    def test_state_is_constant_and_percentiles_track_the_exact_ones(
        self, registry, tiny_corpus, fast_serving_config
    ):
        service = InferenceService(
            registry, tiny_corpus.vocabulary, config=fast_serving_config
        )

        def state_sizes() -> dict:
            """The length of every sized attribute of the service."""
            sizes = {}
            for name, value in vars(service).items():
                value = getattr(value, "counts", value)
                if hasattr(value, "__len__"):
                    sizes[name] = len(value)
            return sizes

        def run(n: int, clients: int) -> list:
            async def client(k: int) -> list:
                return [
                    await service.submit(TRANSFORM, document(tiny_corpus, i))
                    for i in range(k, n, clients)
                ]

            async def main():
                await service.start()
                try:
                    return await asyncio.gather(*(client(k) for k in range(clients)))
                finally:
                    await service.stop()

            return [r for answers in asyncio.run(main()) for r in answers]

        latencies = [r.latency_ms / 1000.0 for r in run(10, 2)]
        after_ten = state_sizes()
        responses = run(20_000, 32)
        assert all(r.ok for r in responses)
        assert state_sizes() == after_ten
        latencies += [r.latency_ms / 1000.0 for r in responses]

        stats = service.stats()
        bucket = 10.0 ** (1.0 / service_module._BUCKETS_PER_DECADE)
        exact = np.percentile(latencies, (50, 95, 99))
        for q, value in zip((50, 95, 99), exact):
            assert value / bucket <= stats[f"p{q}_seconds"] <= value * bucket, q
        waits = [stats[f"queue_wait_p{q}_seconds"] for q in (50, 95, 99)]
        assert 0 < waits[0] <= waits[1] <= waits[2]
        computes = [stats[f"compute_p{q}_seconds"] for q in (50, 95, 99)]
        assert 0 < computes[0] <= computes[1] <= computes[2]
        assert stats["batch_size_mean"] == pytest.approx(20_010 / stats["count_batches"])

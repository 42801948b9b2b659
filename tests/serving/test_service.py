"""InferenceService: micro-batching, resilience envelope, chaos suite.

The acceptance bar throughout: under every injected fault, 100% of
submitted requests receive exactly one well-formed response — ``ok``,
``degraded``, ``timeout``, ``shed`` or ``error`` — never an exception,
never silence.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.data.corpus import Corpus
from repro.errors import ServingError
from repro.serving import (
    InferenceService,
    ModelRegistry,
    Request,
    ServingConfig,
    STATUSES,
)
from repro.serving.service import COHERENCE, TOP_WORDS, TRANSFORM
from repro.telemetry import MetricsRegistry
from repro.training.faults import FaultInjector, FaultPlan


def make_service(registry, corpus, config, **kwargs):
    return InferenceService(registry, corpus.vocabulary, config=config, **kwargs)


def transform_requests(corpus, n):
    docs = corpus.documents
    return [
        Request(TRANSFORM, [int(t) for t in docs[i % len(docs)]])
        for i in range(n)
    ]


def assert_all_answered(responses, n):
    assert len(responses) == n
    assert all(r.status in STATUSES for r in responses)


class TestCleanPath:
    def test_transform_batches_match_direct_model(
        self, registry, tiny_corpus, fast_serving_config, served_model
    ):
        service = make_service(registry, tiny_corpus, fast_serving_config)
        requests = transform_requests(tiny_corpus, 20)
        responses = service.serve(requests)
        assert_all_answered(responses, 20)
        assert all(r.status == "ok" for r in responses)
        assert all(r.model_version == 1 for r in responses)
        for request, response in zip(requests, responses):
            direct = served_model.transform(
                Corpus([request.payload], tiny_corpus.vocabulary)
            )[0]
            np.testing.assert_allclose(response.value, direct)

    def test_requests_actually_coalesce(
        self, registry, tiny_corpus, fast_serving_config
    ):
        service = make_service(registry, tiny_corpus, fast_serving_config)
        responses = service.serve(transform_requests(tiny_corpus, 40))
        assert all(r.ok for r in responses)
        assert service.counts["batches"] < 40 / 2, service.counts
        assert max(r.batch_size for r in responses) > 1

    def test_mixed_kinds(
        self, registry, tiny_corpus, fast_serving_config, fast_config, tiny_npmi
    ):
        service = make_service(
            registry, tiny_corpus, fast_serving_config, npmi_matrix=tiny_npmi
        )
        requests = (
            transform_requests(tiny_corpus, 6)
            + [Request(TOP_WORDS, 7), Request(TOP_WORDS, None)]
            + [Request(COHERENCE)]
        )
        responses = service.serve(requests)
        assert all(r.ok for r in responses), [r.error for r in responses]
        tops = responses[6].value
        assert len(tops) == fast_config.num_topics
        assert all(len(row) == 7 for row in tops)
        assert all(isinstance(w, str) for row in tops for w in row)
        assert len(responses[7].value[0]) == 10  # None → default n
        scores = responses[8].value
        assert np.asarray(scores).shape == (fast_config.num_topics,)

    def test_latency_and_counters_flow_into_metrics(
        self, registry, tiny_corpus, fast_serving_config
    ):
        metrics = MetricsRegistry()
        service = make_service(
            registry, tiny_corpus, fast_serving_config, metrics=metrics
        )
        service.serve(transform_requests(tiny_corpus, 10))
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["serving/requests"] == 10
        assert snapshot["counters"]["serving/ok"] == 10
        assert snapshot["timers"]["serving/latency"]["count"] == 10
        assert "serving/queue_depth" in snapshot["timers"]

    def test_stats_summary(self, registry, tiny_corpus, fast_serving_config):
        service = make_service(registry, tiny_corpus, fast_serving_config)
        service.serve(transform_requests(tiny_corpus, 10))
        stats = service.stats()
        assert stats["count_requests"] == 10
        assert stats["responded"] == 10
        assert stats["unanswered"] == 0
        assert stats["p95_seconds"] >= stats["p50_seconds"] > 0


class TestAdmission:
    def test_rejects_submit_when_not_running(self, registry, tiny_corpus):
        service = make_service(registry, tiny_corpus, ServingConfig())

        async def main():
            await service.submit(TOP_WORDS, 5)

        with pytest.raises(ServingError, match="not running"):
            asyncio.run(main())

    def test_double_start_rejected(self, registry, tiny_corpus):
        service = make_service(registry, tiny_corpus, ServingConfig())

        async def main():
            await service.start()
            try:
                with pytest.raises(ServingError, match="already running"):
                    await service.start()
            finally:
                await service.stop()

        asyncio.run(main())

    def test_overload_sheds_instead_of_queueing_forever(
        self, registry, tiny_corpus
    ):
        # Tiny queue + every batch slowed by injected latency: the
        # backlog crosses the watermark and admission control sheds.
        config = ServingConfig(
            max_batch_size=4,
            max_wait_ms=1.0,
            queue_capacity=4,
            shed_watermark=0.5,
            deadline_ms=5000.0,
        )
        faults = FaultInjector(
            FaultPlan(serve_latency_rate=1.0, serve_latency_seconds=0.02)
        )
        service = make_service(registry, tiny_corpus, config, faults=faults)
        responses = service.serve(transform_requests(tiny_corpus, 30))
        assert_all_answered(responses, 30)
        counts = service.counts
        assert counts["shed"] > 0
        assert counts["shed"] + counts["ok"] + counts["timeout"] == 30
        shed = next(r for r in responses if r.status == "shed")
        assert "watermark" in shed.error or "capacity" in shed.error

    def test_invalid_payloads_get_error_responses(
        self, registry, tiny_corpus, fast_serving_config, tiny_npmi
    ):
        service = make_service(registry, tiny_corpus, fast_serving_config)
        vocab_size = tiny_corpus.vocab_size
        bad = [
            Request("explain", None),                  # unknown kind
            Request(TRANSFORM, []),                    # empty batch
            Request(TRANSFORM, [0.5, 1.5]),            # non-integer ids
            Request(TRANSFORM, [vocab_size + 3]),      # out-of-vocab ids
            Request(TRANSFORM, [-1]),                  # negative ids
            Request(TRANSFORM, [[1, 2], [3]]),         # ragged nesting
            Request(TRANSFORM, [1, [2, 3]]),           # ragged nesting
            Request(TRANSFORM, [[1, 2], [3, 4]]),      # nested document
            Request(TRANSFORM, "1 2 3"),               # string
            Request(TRANSFORM, ["1", "2"]),            # strings
            Request(TRANSFORM, [object(), 1]),         # objects
            Request(TRANSFORM, {0: 1}),                # mapping
            Request(TOP_WORDS, 0),                     # non-positive n
            Request(COHERENCE),                        # no npmi matrix wired
        ]
        good = transform_requests(tiny_corpus, 3)
        responses = service.serve(bad + good)
        assert_all_answered(responses, len(bad) + 3)
        for response in responses[: len(bad)]:
            assert response.status == "error"
            assert response.error
        assert "flat sequence" in responses[5].error  # the ragged payload
        assert all(r.ok for r in responses[len(bad):])
        assert service.counts["invalid"] == len(bad)
        assert service.stats()["unanswered"] == 0


class TestDeadlines:
    def test_slow_batches_yield_timeout_responses(
        self, registry, tiny_corpus
    ):
        config = ServingConfig(
            max_batch_size=8, max_wait_ms=1.0, deadline_ms=10.0
        )
        faults = FaultInjector(
            FaultPlan(serve_latency_rate=1.0, serve_latency_seconds=0.05)
        )
        service = make_service(registry, tiny_corpus, config, faults=faults)
        responses = service.serve(transform_requests(tiny_corpus, 8))
        assert_all_answered(responses, 8)
        assert all(r.status == "timeout" for r in responses)
        assert all(r.value is None for r in responses)

    def test_per_request_deadline_override(
        self, registry, tiny_corpus, fast_serving_config
    ):
        faults = FaultInjector(
            FaultPlan(serve_latency_rate=1.0, serve_latency_seconds=0.03)
        )
        service = make_service(
            registry, tiny_corpus, fast_serving_config, faults=faults
        )
        doc = [int(t) for t in tiny_corpus.documents[0]]
        responses = service.serve(
            [
                Request(TRANSFORM, doc, deadline_ms=5.0),
                Request(TRANSFORM, doc, deadline_ms=5000.0),
            ]
        )
        statuses = {r.status for r in responses}
        assert statuses == {"timeout", "ok"}


class TestRetries:
    def test_worker_death_absorbed_by_retry(
        self, registry, tiny_corpus, fast_serving_config
    ):
        faults = FaultInjector(FaultPlan(serve_death_steps=(0,)))
        service = make_service(
            registry, tiny_corpus, fast_serving_config, faults=faults
        )
        responses = service.serve(transform_requests(tiny_corpus, 6))
        assert all(r.ok for r in responses)
        assert faults.counts["serve_death"] == 1
        assert service.counts["retries"] == 1
        assert service.counts["batch_failures"] == 1

    def test_exhausted_retries_yield_error_responses(
        self, registry, tiny_corpus
    ):
        config = ServingConfig(
            max_batch_size=8,
            max_wait_ms=1.0,
            max_retries=1,
            retry_backoff_ms=1.0,
        )
        faults = FaultInjector(FaultPlan(serve_death_rate=1.0))
        service = make_service(registry, tiny_corpus, config, faults=faults)
        responses = service.serve(transform_requests(tiny_corpus, 5))
        assert_all_answered(responses, 5)
        assert all(r.status == "error" for r in responses)
        assert all("InjectedFault" in r.error for r in responses)
        # max_retries=1 → two attempts per batch, never more.
        assert service.counts["retries"] == service.counts["batches"]


class TestWorkerResilience:
    def test_unexpected_exception_outside_retry_envelope_yields_errors(
        self, registry, tiny_corpus, fast_serving_config, monkeypatch
    ):
        """An exception escaping _execute must not kill the worker.

        Regression test: without the worker's catch-all, a failure on the
        degraded path (outside the retry try-block) killed the batching
        task and left every queued future unresolved — submit() hung
        forever instead of returning a well-formed response.
        """
        service = make_service(registry, tiny_corpus, fast_serving_config)

        def boom(*args, **kwargs):
            raise RuntimeError("degraded path exploded")

        monkeypatch.setattr(service, "_degraded", boom)
        # Trip the breaker (long cooldown) so batches take the broken path.
        for _ in range(service.breaker.threshold):
            service.breaker.record_fault()
        service.breaker.cooldown_seconds = 60.0
        responses = service.serve(transform_requests(tiny_corpus, 4))
        assert_all_answered(responses, 4)
        assert all(r.status == "error" for r in responses)
        assert all("degraded path exploded" in r.error for r in responses)
        assert service.stats()["unanswered"] == 0


class TestCircuitBreaker:
    def _sequential_service(self, registry, corpus, faults, **config_kwargs):
        config = ServingConfig(
            max_batch_size=1,
            max_wait_ms=0.0,
            breaker_threshold=2,
            breaker_cooldown_ms=20.0,
            **config_kwargs,
        )
        return make_service(registry, corpus, config, faults=faults)

    def test_deterministic_trip_and_recovery(self, registry, tiny_corpus):
        """NaN batches trip the breaker; a clean probe closes it again."""
        faults = FaultInjector(FaultPlan(serve_nan_steps=(0, 1)))
        service = self._sequential_service(registry, tiny_corpus, faults)
        doc = [int(t) for t in tiny_corpus.documents[0]]
        statuses = []

        async def main():
            await service.start()
            try:
                for _ in range(3):  # faults at steps 0,1 → trip on the 2nd
                    response = await service.submit(TRANSFORM, doc)
                    statuses.append(response.status)
                await asyncio.sleep(0.05)  # past the 20ms cooldown
                probe = await service.submit(TRANSFORM, doc)
                statuses.append(probe.status)
                final = await service.submit(TRANSFORM, doc)
                statuses.append(final.status)
            finally:
                await service.stop()

        asyncio.run(main())
        assert statuses == [
            "degraded",  # NaN fault 1
            "degraded",  # NaN fault 2 → trips
            "degraded",  # breaker open, no model call
            "ok",        # half-open probe, clean → closes
            "ok",        # closed again
        ]
        assert service.breaker.trips == 1
        assert service.breaker.probes >= 1
        assert service.counts["model_faults"] == 2
        assert service.counts["breaker_trips"] == 1
        assert faults.counts["serve_nan"] == 2

    def test_open_breaker_serves_degraded_not_errors(
        self, registry, tiny_corpus, fast_config, tiny_npmi
    ):
        faults = FaultInjector(FaultPlan(serve_nan_steps=(0, 1)))
        service = self._sequential_service(
            registry,
            tiny_corpus,
            faults,
        )
        service._npmi = tiny_npmi
        doc = [int(t) for t in tiny_corpus.documents[0]]
        num_topics = fast_config.num_topics

        async def main():
            await service.start()
            try:
                for _ in range(2):  # trip it
                    await service.submit(TRANSFORM, doc)
                return (
                    await service.submit(TRANSFORM, doc),
                    await service.submit(TOP_WORDS, 5),
                    await service.submit(COHERENCE),
                )
            finally:
                await service.stop()

        theta, tops, coherence = asyncio.run(main())
        # Degraded transform: the honest uniform θ, not NaN garbage.
        assert theta.status == "degraded"
        np.testing.assert_allclose(
            theta.value, np.full(num_topics, 1.0 / num_topics)
        )
        # Parameter reads degrade to best-effort values.
        assert tops.status == "degraded"
        assert len(tops.value) == num_topics
        assert coherence.status == "degraded"
        assert np.asarray(coherence.value).shape == (num_topics,)
        # NaN is a model fault: it is never retried.
        assert service.counts["retries"] == 0

    def test_parameter_reads_never_consume_the_half_open_probe(
        self, registry, tiny_corpus
    ):
        """A top_words batch arriving half-open must not leak the probe.

        Regression test: parameter reads never call record_success/
        record_fault, so one claiming the probe would leave the breaker
        half-open forever and every later request degraded.
        """
        faults = FaultInjector(FaultPlan(serve_nan_steps=(0, 1)))
        service = self._sequential_service(registry, tiny_corpus, faults)
        doc = [int(t) for t in tiny_corpus.documents[0]]

        async def main():
            await service.start()
            try:
                for _ in range(2):  # NaN faults → trip
                    await service.submit(TRANSFORM, doc)
                await asyncio.sleep(0.05)  # past the cooldown → half-open
                reads = [await service.submit(TOP_WORDS, 5) for _ in range(3)]
                probe = await service.submit(TRANSFORM, doc)
                after = await service.submit(TRANSFORM, doc)
                return reads, probe, after
            finally:
                await service.stop()

        reads, probe, after = asyncio.run(main())
        # The reads follow the breaker state (degraded) without claiming
        # the probe, which stays available for the forward-pass batch.
        assert all(r.status == "degraded" for r in reads)
        assert probe.status == "ok"
        assert after.status == "ok"
        assert service.breaker.state == "closed"

    def test_failed_probe_batch_releases_the_probe_slot(
        self, registry, tiny_corpus
    ):
        """A probe that exhausts retries must not leak the half-open slot."""
        faults = FaultInjector(
            FaultPlan(serve_nan_steps=(0, 1), serve_death_steps=(2, 3))
        )
        service = self._sequential_service(
            registry, tiny_corpus, faults, max_retries=1, retry_backoff_ms=1.0
        )
        doc = [int(t) for t in tiny_corpus.documents[0]]

        async def main():
            await service.start()
            try:
                for _ in range(2):  # NaN faults → trip
                    await service.submit(TRANSFORM, doc)
                await asyncio.sleep(0.05)  # → half-open
                # This probe dies on both attempts → error response; the
                # slot must be released, not leaked.
                failed_probe = await service.submit(TRANSFORM, doc)
                recovery = await service.submit(TRANSFORM, doc)
                return failed_probe, recovery
            finally:
                await service.stop()

        failed_probe, recovery = asyncio.run(main())
        assert failed_probe.status == "error"
        assert recovery.status == "ok"
        assert service.breaker.state == "closed"

    def test_faulty_probe_reopens(self, registry, tiny_corpus):
        faults = FaultInjector(FaultPlan(serve_nan_steps=(0, 1, 2)))
        service = self._sequential_service(registry, tiny_corpus, faults)
        doc = [int(t) for t in tiny_corpus.documents[0]]

        async def main():
            await service.start()
            try:
                for _ in range(2):  # steps 0,1 → trip
                    await service.submit(TRANSFORM, doc)
                await asyncio.sleep(0.05)
                probe = await service.submit(TRANSFORM, doc)  # step 2: NaN
                reopened = await service.submit(TRANSFORM, doc)
                return probe, reopened
            finally:
                await service.stop()

        probe, reopened = asyncio.run(main())
        assert probe.status == "degraded"
        assert reopened.status == "degraded"
        assert service.breaker.trips == 2


class TestHotReloadUnderTraffic:
    def test_corrupt_reload_rolls_back_with_zero_failed_requests(
        self, served_model, model_factory, tiny_corpus, fast_serving_config, tmp_path
    ):
        from repro.io import save_checkpoint
        from repro.serving import LoadProfile, build_requests, run_load

        faults = FaultInjector(FaultPlan(corrupt_checkpoint_loads=(0,)))
        registry = ModelRegistry(
            served_model, factory=model_factory, faults=faults
        )
        service = make_service(registry, tiny_corpus, fast_serving_config)
        path = tmp_path / "published.npz"
        save_checkpoint(served_model, path)

        def publish():
            save_checkpoint(served_model, path)
            registry.load(path)

        report = run_load(
            service,
            build_requests(
                tiny_corpus,
                LoadProfile(
                    num_requests=40, concurrency=8, coherence_weight=0.0
                ),
            ),
            concurrency=8,
            reload_every=10,
            reload_hook=publish,
        )
        assert report.unanswered == 0
        counts = report.status_counts
        assert counts["error"] == 0
        assert counts["ok"] == 40  # a rollback never degrades a request
        assert registry.rollbacks == 1
        assert registry.reloads >= 1
        assert registry.version >= 2

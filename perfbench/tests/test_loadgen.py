import asyncio
import time

import numpy as np

from perfbench.loadgen import attribute, closed_loop, make_requests, open_loop, poisson_schedule
from perfbench.trace import Span
from repro.data import Corpus, Vocabulary
from repro.serving import Response


def corpus() -> Corpus:
    vocab = Vocabulary(f"w{i}" for i in range(20)).freeze()
    rng = np.random.default_rng(0)
    return Corpus([rng.integers(0, 20, size=rng.integers(3, 9)) for _ in range(30)], vocab)


class FakeService:
    """Answers each request at once; can block the event loop once (a stall)."""

    def __init__(self, stall_on: int = -1, stall_s: float = 0.0):
        self.stall_on, self.stall_s = stall_on, stall_s
        self.calls = self.in_flight = self.max_in_flight = 0

    async def submit_request(self, request):
        call, self.calls = self.calls, self.calls + 1
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        if call == self.stall_on:
            time.sleep(self.stall_s)
        await asyncio.sleep(0)
        self.in_flight -= 1
        return Response(status="ok", value=request.payload, batch_size=1)


def test_same_seed_gives_same_schedule_and_payloads():
    mix = (0.8, 0.15, 0.05)
    a = poisson_schedule(corpus(), rate=500, duration=0.4, seed=7, mix=mix)
    b = poisson_schedule(corpus(), rate=500, duration=0.4, seed=7, mix=mix)
    assert len(a) == 200
    assert np.array_equal(a.due, b.due)
    assert [r.kind for r in a.requests] == [r.kind for r in b.requests]
    for x, y in zip(a.requests, b.requests):
        assert np.array_equal(x.payload, y.payload)
    other = poisson_schedule(corpus(), rate=500, duration=0.4, seed=8, mix=mix)
    assert not np.array_equal(a.due, other.due)
    assert {r.kind for r in a.requests} == {"transform", "top_words", "coherence"}


def test_segments_cut_the_schedule_in_order():
    schedule = poisson_schedule(corpus(), rate=500, duration=1.0, seed=4)
    segments = schedule.segments(0.25)
    assert len(segments) >= 4
    assert [r for s in segments for r in s.requests] == schedule.requests
    starts = schedule.due // 0.25 * 0.25
    assert np.allclose(np.concatenate([s.due for s in segments]) + starts, schedule.due)
    assert all(0 <= s.due.min() and s.due.max() < 0.25 for s in segments)


def test_stretch_slows_the_schedule_down():
    schedule = poisson_schedule(corpus(), rate=1000, duration=0.1, seed=5)
    result = asyncio.run(open_loop(FakeService().submit_request, schedule, stretch=2.0))
    assert np.allclose(result.due_at - result.started_at, 2.0 * schedule.due)
    assert result.wall_s >= 2.0 * schedule.due[-1]


def test_transform_payloads_are_distinct_int64_arrays():
    requests = make_requests(corpus(), 100, seed=0)
    payloads = [r.payload for r in requests]
    assert all(p.dtype == np.int64 for p in payloads)
    assert len({id(p) for p in payloads}) == len(payloads)


def test_injected_stall_shows_in_later_latencies():
    schedule = poisson_schedule(corpus(), rate=1000, duration=0.3, seed=1)
    stall_at, stall_s = 100, 0.05
    result = asyncio.run(open_loop(FakeService(stall_at, stall_s).submit_request, schedule))
    assert (result.answers == 1).all() and result.failed == 0 and not result.kept
    stall_end = result.due_at[stall_at] + stall_s
    hit = [
        i
        for i in range(stall_at + 1, len(schedule))
        if result.due_at[i] < stall_end - 0.01
    ]
    assert hit, "no request fell due during the stall"
    for i in hit:
        # Timed from its due time, each request pays the rest of the stall.
        assert result.latency_s[i] >= stall_end - result.due_at[i] - 1e-3
        assert result.late_s[i] > 0
    assert np.median(result.latency_s[:stall_at]) < stall_s / 2


def test_closed_loop_answers_each_request_once_with_bounded_clients():
    requests = make_requests(corpus(), 300, seed=2)
    service = FakeService()
    result = asyncio.run(closed_loop(service.submit_request, requests, clients=8, keep={3, 7}))
    assert (result.answers == 1).all() and result.failed == 0
    assert service.max_in_flight <= 8
    assert (result.done_at >= result.due_at).all() and result.wall_s > 0
    assert sorted(result.kept) == [3, 7]
    assert result.kept[7].value is requests[7].payload


def test_attribution_matches_model_calls_to_requests():
    requests = make_requests(corpus(), 6, seed=3)
    batches = [[0, 1, 2], [3, 4], [5]]
    result = asyncio.run(closed_loop(FakeService().submit_request, requests, clients=1))
    for batch in batches:
        result.batch_size[batch] = len(batch)
    spans = [
        Span("models.transform", 0.0, 1.0, attrs={"_docs": [id(requests[i].payload) for i in b]})
        for b in batches
    ]
    served, mismatches = attribute(result, requests, spans)
    assert served == batches and mismatches == 0
    result.batch_size[5] = 4
    assert attribute(result, requests, spans)[1] == 1

"""Open- and closed-loop traffic for the serving workloads.

Two traffic shapes, both against anything with an ``async
submit_request(request) -> Response`` method (the inference service, or
a fake in the tests):

* :func:`open_loop` — independent users.  Requests are sent on a seeded
  Poisson schedule whether or not earlier ones were answered, so a stall
  in the service lets a queue build.  Latency runs from each request's
  *due* time, which charges that queue to every request it delayed; how
  late the generator itself sent each request is recorded beside it.
* :func:`closed_loop` — a fixed number of clients that each wait for an
  answer before sending again; the rate they reach is the saturation
  throughput.

Request payloads come from :func:`repro.serving.build_requests`; each
``transform`` payload is turned into its own ``int64`` array, which the
service hands to the model unchanged, so a traced model call can name the
requests it served by object identity (:func:`attribute`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Sequence

import numpy as np

from repro.serving import LoadProfile, Request, Response, build_requests

Submit = Callable[[Request], Awaitable[Response]]

#: Open-loop request mix as (transform, top_words, coherence) weights.
TRANSFORM_ONLY = (1.0, 0.0, 0.0)


@dataclass(frozen=True)
class Schedule:
    """Requests and the times (s after the phase starts) they are due."""

    due: np.ndarray
    requests: list[Request]

    def __len__(self) -> int:
        return len(self.requests)

    def segments(self, seconds: float) -> list["Schedule"]:
        """Consecutive ``seconds``-long pieces, each timed from its own start."""
        index = (self.due // seconds).astype(int)
        return [
            Schedule(
                self.due[index == k] - k * seconds,
                [r for r, i in zip(self.requests, index) if i == k],
            )
            for k in np.unique(index)
        ]


def make_requests(corpus, count: int, seed: int, mix=TRANSFORM_ONLY) -> list[Request]:
    """``count`` seeded requests drawn from ``corpus`` in the given mix."""
    transform, top_words, coherence = mix
    profile = LoadProfile(
        num_requests=count,
        transform_weight=transform,
        top_words_weight=top_words,
        coherence_weight=coherence,
        seed=seed,
    )
    return [
        Request(r.kind, np.asarray(r.payload, dtype=np.int64), r.deadline_ms)
        if r.kind == "transform"
        else r
        for r in build_requests(corpus, profile)
    ]


def poisson_schedule(
    corpus, rate: float, duration: float, seed: int, mix=TRANSFORM_ONLY
) -> Schedule:
    """``rate × duration`` requests with exponential gaps at ``rate``/s."""
    count = max(1, int(round(rate * duration)))
    gaps = np.random.default_rng([seed, 1]).exponential(1.0 / rate, size=count)
    return Schedule(np.cumsum(gaps), make_requests(corpus, count, seed, mix))


@dataclass
class PhaseResult:
    """Per-request outcome of one traffic phase (index = request index).

    Every answer is reduced to a few numbers in arrays allocated when the
    phase starts; whole responses are kept only for the requests named in
    ``keep``.  Holding every served θ would grow memory with the length
    of the phase and hide any growth of the service itself.
    """

    #: Responses of the kept requests, by request index.
    kept: dict[int, Response]
    #: Whether each request's answer had status ``ok``.
    ok: np.ndarray
    #: Batch size each answer reports (-1 while unanswered).
    batch_size: np.ndarray
    #: Seconds from due (open loop) or send (closed loop) to the answer.
    latency_s: np.ndarray
    #: Seconds the generator sent each request after it was due.
    late_s: np.ndarray
    #: How many answers each request received (exactly one is correct).
    answers: np.ndarray
    #: Absolute clock times each request was due / was answered.
    due_at: np.ndarray
    done_at: np.ndarray
    started_at: float = 0.0
    wall_s: float = 0.0

    def __len__(self) -> int:
        return len(self.answers)

    @property
    def failed(self) -> int:
        """Requests not answered exactly once with status ``ok``."""
        return int(np.sum((self.answers != 1) | ~self.ok))

    def answer(self, i: int, response: Response, keep) -> None:
        self.done_at[i] = time.perf_counter()
        self.ok[i] = response.status == "ok"
        self.batch_size[i] = response.batch_size
        self.answers[i] += 1
        if i in keep:
            self.kept[i] = response


def _empty(count: int) -> PhaseResult:
    return PhaseResult(
        kept={},
        ok=np.zeros(count, dtype=bool),
        batch_size=np.full(count, -1, dtype=np.int64),
        latency_s=np.zeros(count),
        late_s=np.zeros(count),
        answers=np.zeros(count, dtype=np.int64),
        due_at=np.zeros(count),
        done_at=np.zeros(count),
    )


async def open_loop(
    submit: Submit, schedule: Schedule, keep=frozenset(), stretch: float = 1.0
) -> PhaseResult:
    """Send every request at its due time; wait for all answers.

    ``stretch`` scales every due time: at 2.0 the same requests arrive at
    half the rate.
    """
    result = _empty(len(schedule))

    async def one(i: int) -> None:
        result.answer(i, await submit(schedule.requests[i]), keep)

    tasks = []
    start = result.started_at = time.perf_counter()
    result.due_at[:] = start + schedule.due * stretch
    for i, due in enumerate(result.due_at):
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.late_s[i] = time.perf_counter() - due
        tasks.append(asyncio.create_task(one(i)))
    await asyncio.gather(*tasks)
    result.latency_s = result.done_at - result.due_at
    result.wall_s = time.perf_counter() - start
    return result


async def closed_loop(
    submit: Submit, requests: Sequence[Request], clients: int, keep=frozenset()
) -> PhaseResult:
    """``clients`` callers each send their next request when answered."""
    result = _empty(len(requests))
    pending = iter(range(len(requests)))

    async def client() -> None:
        for i in pending:
            result.due_at[i] = time.perf_counter()
            result.answer(i, await submit(requests[i]), keep)

    start = result.started_at = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(clients)))
    result.wall_s = time.perf_counter() - start
    result.latency_s = result.done_at - result.due_at
    return result


def attribute(phase: PhaseResult, requests: Sequence[Request], spans) -> tuple[list, int]:
    """Match each traced model call to the requests it computed.

    ``spans`` carry ``attrs["_docs"]`` — the ``id()`` of every document the
    model call received.  Returns ``(per-span request indices,
    mismatches)`` where a mismatch is a span whose attributed requests do
    not equal its batch size, or whose requests report another batch size
    in their responses.
    """
    by_payload = {
        id(r.payload): i for i, r in enumerate(requests) if r.kind == "transform"
    }
    served: list[list[int]] = []
    mismatches = 0
    for span in spans:
        docs = span.attrs["_docs"]
        indices = [by_payload[d] for d in docs if d in by_payload]
        served.append(indices)
        sizes = set(phase.batch_size[indices].tolist())
        if len(indices) != len(docs) or sizes != {len(docs)}:
            mismatches += 1
    return served, mismatches

"""The five benchmark workloads.

Each workload turns ``--seed`` into inputs (:meth:`Workload.inputs`, not
timed), builds what it needs from them (:meth:`Workload.setup`, timed as
``setup_s``), runs a fixed amount of work (:meth:`Workload.measure`,
timed), and then checks the outputs (:meth:`Workload.check`, not timed).
How much work a run does follows from ``--seconds`` through a nominal
rate per workload, so one ``--seconds`` value always means the same work
and the same model quality, on any machine.

Why these five (the README has the full table):

* ``train-nyt`` — the paper's §V.E cost profile; the contrastive term is
  about half of every epoch.
* ``seeds-20ng`` — the parallel multi-seed protocol with clustering
  evaluation and *no* contrastive term: the workload on which an
  objective optimisation must show no change.
* ``serve-steady`` / ``serve-reload`` — the inference service under
  open-loop traffic, without and with hot reloads beside the reads.
* ``stream-drift`` — online training: streaming NPMI, kernel refresh and
  the fixed cost of one short fit per slice; also the memory soak.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import math
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from perfbench.inputs import InputCache, text_pool
from perfbench.loadgen import attribute, closed_loop, make_requests, open_loop, poisson_schedule
from perfbench.pace import Pace, at_reference
from perfbench.trace import NullTracer, Tracer, after_each_call, named, percentile_ms
from repro.core import ContraTopic, ContraTopicConfig, npmi_kernel
from repro.data import DATASET_PROFILES, Corpus, PreprocessConfig, Preprocessor
from repro.embeddings import build_embeddings
from repro.errors import ReproError
from repro.extensions import OnlineConfig, OnlineContraTopic
from repro.io import load_corpus, save_checkpoint, save_corpus
from repro.metrics import (
    DocumentCooccurrence,
    coherence_by_percentage,
    compute_npmi_matrix,
    diversity_by_percentage,
)
from repro.models import ETM, NTMConfig
from repro.parallel import ParallelMap
from repro.serving import InferenceService, ModelRegistry, ServingConfig
from repro.training import protocol
from repro.training.callbacks import Callback
from repro.training.trainer import Trainer

NYT = DATASET_PROFILES["nytimes"]
NG = DATASET_PROFILES["20ng"]

EMBEDDING_DIM = 50
KERNEL_TEMPERATURE = 0.25
HIDDEN = (64,)
BATCH_SIZE = 200


class CheckFailed(Exception):
    """A workload produced wrong or degraded output."""


#: A measured phase is cut into this many consecutive windows, and each
#: end-to-end timing is the median of its per-window values, so a burst
#: of load from another process spoils one window, not the result.
WINDOWS = 10


def windows(values) -> list[np.ndarray]:
    """Consecutive chunks of ``values``, at least ten values per chunk."""
    values = np.asarray(values, dtype=float)
    return np.array_split(values, max(1, min(WINDOWS, len(values) // 10)))


def _chunks(items: list, count: int) -> list[list]:
    """``items`` cut into ``count`` consecutive, nearly equal lists."""
    bounds = np.linspace(0, len(items), count + 1).round().astype(int)
    return [items[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def window_rates(work, seconds) -> list[float]:
    """Work per second in each window of consecutive operations."""
    return [w.sum() / s.sum() for w, s in zip(windows(work), windows(seconds))]


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    attempted: int
    failed: int
    #: Work units (docs, requests) per reference-speed second, per window.
    rates: list[float]
    #: Latency of each operation the workload counts, per window (s, at
    #: the reference speed).
    latencies: list[np.ndarray]
    rss_growth_mb: float
    topic_npmi: float = 0.0
    topic_diversity: float = 0.0
    #: Workload-specific values kept for the checks and the trace.
    detail: dict = field(default_factory=dict)
    #: Values reported beside the metrics in ``results.json``.
    extra: dict = field(default_factory=dict)

    @property
    def work_per_s(self) -> float:
        return float(np.median(self.rates))

    def latency_ms(self, q: float) -> float:
        """Median over windows of each window's ``q``-th percentile."""
        return float(np.median([percentile_ms(w, q) for w in self.latencies]))


def rss_mb(field_name: str = "VmRSS") -> float:
    """Resident (``VmRSS``) or peak resident (``VmHWM``) memory in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field_name} missing from /proc/self/status")


def _quality(topic_word: np.ndarray, npmi) -> tuple[float, float]:
    """Coherence and diversity over 100% of topics (§V.B)."""
    return (
        coherence_by_percentage(topic_word, npmi, percentages=(1.0,))[1.0],
        diversity_by_percentage(topic_word, npmi, percentages=(1.0,))[1.0],
    )


def _require_floor(outcome: Outcome, floors: tuple[float, float] | None) -> None:
    if floors is None:
        return
    npmi_floor, diversity_floor = floors
    if outcome.topic_npmi < npmi_floor or outcome.topic_diversity < diversity_floor:
        raise CheckFailed(
            f"topic quality npmi={outcome.topic_npmi:.4f} "
            f"diversity={outcome.topic_diversity:.4f} below the floors "
            f"{npmi_floor} / {diversity_floor}"
        )


#: Most the resident memory of a long-running workload may grow between
#: 10% of its measured phase and the end, in MB.
RSS_GROWTH_LIMIT_MB = 4.0


def _require_no_growth(outcome: Outcome) -> None:
    if outcome.rss_growth_mb > RSS_GROWTH_LIMIT_MB:
        raise CheckFailed(
            f"resident memory grew {outcome.rss_growth_mb:.1f} MB during the "
            f"measured phase, over the {RSS_GROWTH_LIMIT_MB} MB limit"
        )


def _nonfinite_epochs(history: list[dict]) -> int:
    return sum(not math.isfinite(entry["total"]) for entry in history)


def _ntm_config(num_topics: int, epochs: int, seed: int = 0) -> NTMConfig:
    return NTMConfig(
        num_topics=num_topics,
        hidden_sizes=HIDDEN,
        epochs=epochs,
        batch_size=BATCH_SIZE,
        learning_rate=2e-3,
        seed=seed,
    )


class _EpochClock(Callback):
    """Epoch times with a speed probe between epochs, and RSS at 10%."""

    def __init__(self, epochs: int, pace: Pace):
        self.pace = pace
        self.seconds: list[float] = []
        self.speeds: list[float] = []
        self.rss_mark_epoch = max(1, math.ceil(0.1 * epochs)) - 1
        self.rss_mark = 0.0
        self.started = 0.0

    def on_fit_start(self, model) -> None:
        self.speeds.append(self.pace.speed())
        self.started = time.perf_counter()

    def on_epoch_end(self, model, epoch, logs) -> bool:
        self.seconds.append(time.perf_counter() - self.started)
        self.speeds.append(self.pace.speed())
        if epoch == self.rss_mark_epoch:
            self.rss_mark = rss_mb()
        self.started = time.perf_counter()
        return False


class Workload:
    """One benchmark workload; see the module docstring for the phases."""

    name = ""
    #: (npmi, diversity) floors of the check; ``None`` in quick mode,
    #: whose tiny corpora do not form topics.
    floors: tuple[float, float] | None = None

    def inputs(self, seed: int, cache: InputCache):
        raise NotImplementedError

    def setup(self, inputs, tracer: Tracer | NullTracer):
        raise NotImplementedError

    def measure(self, state, tracer: Tracer | NullTracer, pace: Pace) -> Outcome:
        raise NotImplementedError

    def check(self, state, outcome: Outcome) -> None:
        """Raise :class:`CheckFailed` on wrong output; fill in quality."""

    def layers(self, state, outcome: Outcome, tracer: Tracer) -> dict[str, float]:
        """Per-layer metrics only this workload can derive."""
        return {}


def _split(texts, labels, seed: int, *counts: int):
    """Seeded disjoint samples of ``counts`` pool documents (with labels)."""
    order = np.random.default_rng(seed).permutation(len(texts))
    parts, at = [], 0
    for count in counts:
        picked = order[at : at + count]
        parts.append(([texts[i] for i in picked], [labels[i] for i in picked]))
        at += count
    return parts


# ----------------------------------------------------------------------
# train-nyt
# ----------------------------------------------------------------------
class TrainNyt(Workload):
    """ContraTopic on the NYTimes profile, then §V.B evaluation."""

    name = "train-nyt"
    #: Nominal epochs per benchmark second (about 0.2 s per epoch).
    EPOCHS_PER_SECOND = 5

    def __init__(self, seconds: float, quick: bool):
        self.pool, self.train_docs, self.test_docs = (
            (300, 200, 100) if quick else (12000, 6000, 2000)
        )
        self.epochs = 2 if quick else max(2, round(self.EPOCHS_PER_SECOND * seconds))
        self.floors = None if quick else (0.4, 0.25)

    def inputs(self, seed, cache):
        texts, labels = text_pool(cache, NYT.themes, self.pool, NYT.average_length, NYT.seed)
        (train, _), (test, _) = _split(texts, labels, seed, self.train_docs, self.test_docs)
        return train, test

    def setup(self, inputs, tracer):
        train_texts, test_texts = inputs
        pre = Preprocessor(PreprocessConfig(min_doc_count=NYT.min_doc_count))
        train = pre.fit_transform(train_texts)
        test = pre.transform(test_texts)
        with tracer.span("metrics.npmi"):
            train_npmi = compute_npmi_matrix(train)
            test_npmi = compute_npmi_matrix(test)
        with tracer.span("embeddings.build"):
            vectors = build_embeddings(train, dim=EMBEDDING_DIM).vectors
        with tracer.span("core.kernel_build"):
            kernel = npmi_kernel(train_npmi, temperature=KERNEL_TEMPERATURE)
        return SimpleNamespace(train=train, test=test, test_npmi=test_npmi, vectors=vectors, kernel=kernel)

    def measure(self, state, tracer, pace):
        backbone = ETM(state.train.vocab_size, _ntm_config(50, self.epochs), state.vectors)
        model = ContraTopic(
            backbone,
            state.kernel,
            ContraTopicConfig(lambda_weight=300.0, num_sampled_words=10, negative_weight=3.0),
        )
        clock = _EpochClock(self.epochs, pace)
        Trainer().fit(model, state.train, callbacks=[clock])
        result = protocol.evaluate_model(model, state.test, state.test_npmi, cluster_counts=())
        epoch_seconds = at_reference(clock.seconds, clock.speeds)
        return Outcome(
            attempted=self.epochs,
            failed=_nonfinite_epochs(model.history),
            rates=window_rates(np.full(self.epochs, len(state.train)), epoch_seconds),
            latencies=windows(epoch_seconds),
            rss_growth_mb=rss_mb() - clock.rss_mark,
            topic_npmi=result.coherence[1.0],
            topic_diversity=result.diversity[1.0],
        )

    def check(self, state, outcome):
        _require_floor(outcome, self.floors)


# ----------------------------------------------------------------------
# seeds-20ng
# ----------------------------------------------------------------------
def _etm(vocab_size: int, vectors: np.ndarray, epochs: int, seed: int) -> ETM:
    return ETM(vocab_size, _ntm_config(50, epochs, seed), vectors)


class SeedsNg(Workload):
    """Plain-ETM multi-seed evaluation, serial rounds plus one fan-out.

    The timed work is :data:`ROUNDS` serial evaluations of seeds 0-3, each
    task at the reference speed.  The two-worker fan-out runs once more
    after them: its results must equal the serial ones, and its speedup is
    reported beside the metrics, not as one.  On a shared two-CPU host two
    busy processes run 10-50% faster or slower from one minute to the
    next, in a way no probe in this process can see, so a timing of the
    fan-out cannot resolve a 25% change.
    """

    name = "seeds-20ng"
    SEEDS = (0, 1, 2, 3)
    WORKERS = 2
    ROUNDS = 2
    #: Nominal epochs per seed per benchmark second.
    EPOCHS_PER_SECOND = 2.5

    def __init__(self, seconds: float, quick: bool):
        self.pool, self.train_docs, self.test_docs = (
            (300, 150, 100) if quick else (8000, 3000, 2000)
        )
        self.epochs = 2 if quick else max(2, round(self.EPOCHS_PER_SECOND * seconds))
        self.floors = None if quick else (0.35, 0.3)
        self.purity_floor = 0.0 if quick else 0.6

    def inputs(self, seed, cache):
        texts, labels = text_pool(cache, NG.themes, self.pool, NG.average_length, NG.seed)
        return _split(texts, labels, seed, self.train_docs, self.test_docs)

    def setup(self, inputs, tracer):
        (train_texts, train_labels), (test_texts, test_labels) = inputs
        pre = Preprocessor(PreprocessConfig(min_doc_count=NG.min_doc_count))
        train = pre.fit_transform(train_texts, labels=train_labels)
        test = pre.transform(test_texts, labels=test_labels)
        with tracer.span("metrics.npmi"):
            test_npmi = compute_npmi_matrix(test)
        with tracer.span("embeddings.build"):
            vectors = build_embeddings(train, dim=EMBEDDING_DIM).vectors
        return SimpleNamespace(train=train, test=test, test_npmi=test_npmi, vectors=vectors)

    def _evaluate(self, state, workers: int):
        factory = functools.partial(_etm, state.train.vocab_size, state.vectors, self.epochs)
        return protocol.multi_seed_evaluation(
            factory,
            state.train,
            state.test,
            state.test_npmi,
            seeds=self.SEEDS,
            cluster_counts=(20,),
            workers=workers,
        )

    def measure(self, state, tracer, pace):
        rss_start = rss_mb()
        results, maps, speeds = [], [], [pace.speed()]
        # A speed sample after each serial task (it lands inside the
        # task's timing: 10 ms of a 1 s task).
        with after_each_call(ParallelMap, "map", maps.append), after_each_call(
            protocol, "train_and_evaluate", lambda _: speeds.append(pace.speed())
        ):
            for _ in range(self.ROUNDS):
                results.append(self._evaluate(state, 1))
        task_seconds = at_reference([task.seconds for run in maps for task in run], speeds)
        start = time.perf_counter()
        fanout = self._evaluate(state, self.WORKERS)
        fanout_s = time.perf_counter() - start
        serial_s = float(np.mean([sum(task.seconds for task in run) for run in maps]))
        result = results[-1]
        return Outcome(
            attempted=len(self.SEEDS) * (self.ROUNDS + 1),
            failed=sum(s != "ok" for r in [*results, fanout] for s in r.seed_status.values()),
            rates=list(self.epochs * len(state.train) / task_seconds),
            latencies=np.array_split(task_seconds, self.ROUNDS),
            rss_growth_mb=rss_mb() - rss_start,
            topic_npmi=result.coherence[1.0],
            topic_diversity=result.diversity[1.0],
            detail={"results": [*results, fanout]},
            extra={"fanout_s": fanout_s, "fanout_speedup": serial_s / fanout_s},
        )

    def check(self, state, outcome):
        _require_floor(outcome, self.floors)
        result = outcome.detail["results"][0]
        if min(result.km_purity.values(), default=1.0) < self.purity_floor:
            raise CheckFailed(f"km-purity {result.km_purity} below {self.purity_floor}")
        for other in outcome.detail["results"][1:]:
            if other.summary() != result.summary() or other.seed_status != result.seed_status:
                raise CheckFailed(
                    f"evaluations of the same seeds differ: {other.summary()} "
                    f"vs {result.summary()}"
                )


# ----------------------------------------------------------------------
# serve-steady / serve-reload
# ----------------------------------------------------------------------
class _Snapshots(Callback):
    """Save the ETM backbone as a serving checkpoint after chosen epochs."""

    def __init__(self, directory: Path, epochs: tuple[int, ...]):
        self.directory = directory
        self.epochs = epochs

    def on_epoch_end(self, model, epoch, logs) -> bool:
        if epoch + 1 in self.epochs:
            index = self.epochs.index(epoch + 1)
            save_checkpoint(model.backbone, self.directory / f"ckpt-{index}.npz")
        return False


class Serve(Workload):
    """The inference service under open- and closed-loop traffic.

    The served models are the ETM backbone of a ContraTopic model trained
    on the 20NG profile, saved after four different epochs; they are a
    cached input, like the pool texts.  Requests carry held-out documents.

    The open loop runs on the reference machine's clock.  It is cut into
    segments of :data:`SEGMENT_S`; before each, the probe reads the CPU
    speed ``s`` (median of three), and the segment runs slowed down by
    ``1/s`` throughout:
    requests arrive ``1/s`` times further apart, a fresh service batches
    them with a window ``1/s`` times longer, and reloads come ``1/s`` times
    less often.  On a CPU that is uniformly ``s`` times slower, every
    latency then takes exactly ``1/s`` times as long as on the reference
    one, so latencies are reported multiplied by ``s``.
    """

    #: Open-loop rates at the reference speed.  At twice these the
    #: serving process was half busy, and each host stall left a long
    #: queue behind it.
    RATE = 1000.0
    RELOAD_RATE = 500.0
    SEGMENT_S = 0.5
    #: Open-loop latency percentiles are medians over windows of this
    #: many consecutive requests (50 ms of traffic), so a host stall
    #: spoils a few windows, not the whole percentile.  With reloads a
    #: window is 200 ms, so that most windows hold a reload (one every
    #: 250 ms) and the percentiles include what reloads cost.
    WINDOW_REQUESTS = 50
    RELOAD_WINDOW_REQUESTS = 100
    CLIENTS = 128
    RELOAD_PERIOD_S = 0.25
    #: transform / top_words / coherence weights with reloads running.
    RELOAD_MIX = (0.80, 0.15, 0.05)
    VERIFY_SAMPLES = 256
    THETA_TOL = 1e-5

    def __init__(self, name: str, seconds: float, quick: bool, reload: bool):
        self.name = name
        self.reload = reload
        self.window = self.RELOAD_WINDOW_REQUESTS if reload else self.WINDOW_REQUESTS
        if quick:
            self.pool, self.train_docs, self.snapshots = 300, 200, (1, 2, 3, 4)
            self.rate, self.warmup_s, self.open_s = 400.0, 0.1, 0.3
            self.closed_requests, self.clients = 200, 16
        else:
            self.pool, self.train_docs, self.snapshots = 8000, 3000, (5, 10, 15, 20)
            self.rate = self.RELOAD_RATE if reload else self.RATE
            # About 60% of the run open-loop, 30% closed-loop (18k req/s at
            # the reference speed): a closed loop of under two seconds
            # caught too few swings of the host's CPU speed and spread by
            # 11% over ten runs.
            self.warmup_s, self.open_s = 1.0, 0.6 * seconds
            self.closed_requests, self.clients = round(5000 * seconds), self.CLIENTS
        self.floors = None if quick else (0.4, 0.25)

    def _build(self, texts, directory: Path) -> None:
        pre = Preprocessor(PreprocessConfig(min_doc_count=NG.min_doc_count))
        reference = pre.fit_transform(texts[: self.train_docs])
        heldout = pre.transform(texts[self.train_docs :])
        vectors = build_embeddings(reference, dim=EMBEDDING_DIM).vectors
        model = ContraTopic(
            ETM(reference.vocab_size, _ntm_config(50, self.snapshots[-1]), vectors),
            npmi_kernel(compute_npmi_matrix(reference), temperature=KERNEL_TEMPERATURE),
            ContraTopicConfig(lambda_weight=40.0, negative_weight=3.0),
        )
        Trainer().fit(model, reference, callbacks=[_Snapshots(directory, self.snapshots)])
        save_corpus(reference, directory / "reference.npz")
        save_corpus(heldout, directory / "heldout.npz")
        np.save(directory / "embeddings.npy", vectors)

    def inputs(self, seed, cache):
        texts, _ = text_pool(cache, NG.themes, self.pool, NG.average_length, NG.seed)
        params = {"pool": self.pool, "train": self.train_docs, "snapshots": list(self.snapshots)}
        directory = cache.entry("serve", params, functools.partial(self._build, texts))
        heldout = load_corpus(directory / "heldout.npz")
        mix = self.RELOAD_MIX if self.reload else (1.0, 0.0, 0.0)
        opened = poisson_schedule(heldout, self.rate, self.open_s, 3 * seed + 1, mix)
        segments = opened.segments(self.SEGMENT_S)
        # Closed-loop requests in chunks, with a speed probe between.
        closed = _chunks(make_requests(heldout, self.closed_requests, 3 * seed + 2), WINDOWS)
        keep = self._verify_picks([*(s.requests for s in segments), *closed], seed)
        return SimpleNamespace(
            directory=directory,
            heldout=heldout,
            warmup=poisson_schedule(heldout, self.rate, self.warmup_s, 3 * seed, mix),
            open=segments,
            closed=closed,
            open_keep=keep[: len(segments)],
            closed_keep=keep[len(segments) :],
        )

    def _verify_picks(self, phases: list[list], seed: int) -> list[set[int]]:
        """Per phase, the seeded sample of transform requests whose θ is checked."""
        transforms = [
            (p, i)
            for p, requests in enumerate(phases)
            for i, request in enumerate(requests)
            if request.kind == "transform"
        ]
        rng = np.random.default_rng([seed, 2])
        keep = [set() for _ in phases]
        for k in rng.choice(len(transforms), min(self.VERIFY_SAMPLES, len(transforms)), replace=False):
            p, i = transforms[k]
            keep[p].add(i)
        return keep

    def setup(self, inputs, tracer):
        reference = load_corpus(inputs.directory / "reference.npz")
        vectors = np.load(inputs.directory / "embeddings.npy")
        factory = functools.partial(ETM, reference.vocab_size, _ntm_config(50, 1), vectors)
        paths = [inputs.directory / f"ckpt-{i}.npz" for i in range(len(self.snapshots))]
        registry = ModelRegistry(factory(), factory=factory)
        if not registry.load(paths[-1]):
            raise CheckFailed(f"cannot load {paths[-1]}: {registry.last_error}")
        # The NPMI matrix lets the service answer coherence requests.
        with tracer.span("metrics.npmi"):
            npmi = compute_npmi_matrix(reference)
        return SimpleNamespace(
            inputs=inputs,
            vocabulary=reference.vocabulary,
            factory=factory,
            registry=registry,
            npmi=npmi,
            paths=paths,
            # registry version -> index of the checkpoint it serves
            versions={registry.version: len(paths) - 1},
        )

    def _reload_forever(self, state, now, stop: threading.Event, quiet: threading.Lock) -> None:
        for turn in itertools.count():
            if stop.wait(self.RELOAD_PERIOD_S / now.speed):
                return
            index = turn % len(state.paths)
            with quiet:
                if state.registry.load(state.paths[index]):
                    state.versions[state.registry.version] = index

    def _service(self, state, speed: float = 1.0) -> InferenceService:
        """A service with the default batching window stretched by ``1/speed``."""
        config = ServingConfig()
        return InferenceService(
            state.registry,
            state.vocabulary,
            config=replace(config, max_wait_ms=config.max_wait_ms / speed),
            npmi_matrix=state.npmi,
        )

    def measure(self, state, tracer, pace):
        traffic = state.inputs
        before = (state.registry.reloads, state.registry.rollbacks)
        marks = {"open": [], "closed": [], "unanswered": 0}
        # The speed probe runs with no request in flight and, under
        # ``quiet``, no reload holding the GIL.  One probe that a host
        # stall hits reads half the speed, so each reading is the median
        # of three.  The last reading (``now.speed``) also paces reloads.
        quiet = threading.Lock()
        now = SimpleNamespace(speed=1.0)

        def speed() -> float:
            with quiet:
                now.speed = float(np.median([pace.speed() for _ in range(3)]))
            return now.speed

        async def serve(service: InferenceService, phase):
            await service.start()
            try:
                return await phase(service.submit_request)
            finally:
                await service.stop()
                marks["unanswered"] += service.stats()["unanswered"]

        async def open_phase(schedule, keep=frozenset()):
            s = speed()
            result = await serve(
                self._service(state, s),
                lambda submit: open_loop(submit, schedule, keep, stretch=1.0 / s),
            )
            return result, s

        async def closed_phase(submit) -> None:
            marks["speeds"] = [speed()]
            for chunk, keep in zip(traffic.closed, traffic.closed_keep):
                marks["closed"].append(await closed_loop(submit, chunk, self.clients, keep))
                marks["speeds"].append(speed())

        # Results leave through ``marks``, not the return value: on exit
        # asyncio.run formats the main task, result included, into a
        # message it discards, and repr() of every served θ takes minutes.
        async def drive() -> None:
            marks["warm"], _ = await open_phase(traffic.warmup)
            marks["rss"] = rss_mb()
            for segment, keep in zip(traffic.open, traffic.open_keep):
                marks["open"].append(await open_phase(segment, keep))
            # Full batches leave the window unused: the closed loop is
            # compute-bound and timed per chunk at the reference speed.
            await serve(self._service(state), closed_phase)

        stop = threading.Event()
        reloader = threading.Thread(target=self._reload_forever, args=(state, now, stop, quiet))
        if self.reload:
            reloader.start()
        try:
            asyncio.run(drive())
        finally:
            stop.set()
            if self.reload:
                reloader.join()
        opened, closed = marks["open"], marks["closed"]
        chunk_seconds = at_reference([c.wall_s for c in closed], marks["speeds"])
        latency = np.concatenate([result.latency_s * s for result, s in opened])
        return Outcome(
            attempted=sum(len(r) for r, _ in opened) + sum(len(c) for c in closed),
            failed=sum(r.failed for r, _ in opened) + sum(c.failed for c in closed),
            rates=[len(c) / t for c, t in zip(closed, chunk_seconds)],
            latencies=np.array_split(latency, max(1, len(latency) // self.window)),
            rss_growth_mb=rss_mb() - marks["rss"],
            detail={
                **{key: marks[key] for key in ("warm", "open", "closed", "unanswered")},
                "reloads": state.registry.reloads - before[0],
                "rollbacks": state.registry.rollbacks - before[1],
            },
        )

    def _model(self, state, index: int):
        cache = state.__dict__.setdefault("verify_models", {})
        if index not in cache:
            registry = ModelRegistry(state.factory(), factory=state.factory)
            if not registry.load(state.paths[index]):
                raise CheckFailed(f"cannot load {state.paths[index]}")
            cache[index] = registry.model
        return cache[index]

    def check(self, state, outcome):
        traffic = state.inputs
        detail = outcome.detail
        if detail["warm"].failed or outcome.failed or detail["unanswered"]:
            raise CheckFailed(
                f"requests not answered exactly once with ok: warm-up {detail['warm'].failed}, "
                f"measured {outcome.failed}, unanswered {detail['unanswered']}"
            )
        if self.reload:
            if outcome.detail["reloads"] < 1 or outcome.detail["rollbacks"]:
                raise CheckFailed(
                    f"reloads {outcome.detail['reloads']}, "
                    f"rollbacks {outcome.detail['rollbacks']}"
                )
            _require_no_growth(outcome)
        phases = [
            *zip((result for result, _ in detail["open"]), (s.requests for s in traffic.open)),
            *zip(detail["closed"], traffic.closed),
        ]
        for phase, requests in phases:
            for i, response in phase.kept.items():
                self._verify(state, requests[i], response)
        final = self._model(state, len(state.paths) - 1)
        outcome.topic_npmi, outcome.topic_diversity = _quality(
            final.topic_word_matrix(), compute_npmi_matrix(traffic.heldout)
        )
        _require_floor(outcome, self.floors)

    def _verify(self, state, request, response) -> None:
        """θ served for ``request`` equals a direct ``transform`` by its checkpoint."""
        model = self._model(state, state.versions[response.model_version])
        direct = model.transform(Corpus([request.payload], state.vocabulary))[0]
        gap = float(np.max(np.abs(np.asarray(response.value) - direct)))
        if gap > self.THETA_TOL:
            raise CheckFailed(f"served θ differs from model.transform by {gap:.2e}")

    def layers(self, state, outcome, tracer):
        """Open-loop batching, from the traced model calls of each segment.

        Waits and lateness are scaled to the reference speed like the
        latencies; request numbers in the span file count across segments.
        """
        calls = [
            s
            for s in tracer.spans
            if s.name in ("models.transform", "models.top_words", "metrics.coherence")
            and s.parent is None
        ]
        compute, transforms, waits, late = [], [], [], []
        wall, mismatches, first = 0.0, 0, 0
        for (result, speed), schedule in zip(outcome.detail["open"], state.inputs.open):
            lo, hi = result.started_at, result.started_at + result.wall_s
            inside = [s for s in calls if lo <= s.start <= hi]
            batches = named(inside, "models.transform")
            served, bad = attribute(result, schedule.requests, batches)
            for span, indices in zip(batches, served):
                waits.extend((span.start - result.due_at[i]) * speed for i in indices)
                span.attrs["requests"] = [first + i for i in indices]
            for i in range(len(result)):
                tracer.record(
                    "loadgen.request", result.due_at[i], result.done_at[i], {"request": first + i}
                )
            compute += inside
            transforms += batches
            late.extend(result.late_s * speed)
            wall += result.wall_s
            mismatches += bad
            first += len(result)
        start = outcome.detail["open"][0][0].started_at
        reloads = [s for s in named(tracer.spans, "serving.reload") if s.start >= start]
        return {
            "serving.queue_wait_ms_p50": percentile_ms(waits, 50),
            "serving.queue_wait_ms_p99": percentile_ms(waits, 99),
            "serving.batch_size_mean": (
                float(np.mean([s.attrs["size"] for s in transforms])) if transforms else 0.0
            ),
            "serving.busy_frac": sum(s.seconds for s in compute) / wall,
            "serving.batches": float(len(compute)),
            "serving.batch_mismatches": float(mismatches),
            "serving.reload_ms_p50": percentile_ms((s.seconds for s in reloads), 50),
            "serving.reloads": float(outcome.detail["reloads"]),
            "serving.rollbacks": float(outcome.detail["rollbacks"]),
            "loadgen.late_ms_p99": percentile_ms(late, 99),
        }


# ----------------------------------------------------------------------
# stream-drift
# ----------------------------------------------------------------------
class StreamDrift(Workload):
    """Online ContraTopic over time slices whose themes drift."""

    name = "stream-drift"
    #: Nominal slices per benchmark second (about 60 ms per slice).
    SLICES_PER_SECOND = 16
    BASE, EMERGING = NYT.themes[:15], NYT.themes[15:18]
    LENGTH = 50.0

    def __init__(self, seconds: float, quick: bool):
        if quick:
            self.pool, self.backlog, self.slices, self.docs, self.epochs = 200, 100, 4, 30, 1
        else:
            self.pool, self.backlog, self.docs, self.epochs = 10000, 2000, 200, 5
            self.slices = max(4, round(self.SLICES_PER_SECOND * seconds))
        self.floors = None if quick else (0.4, 0.4)

    def inputs(self, seed, cache):
        before, _ = text_pool(cache, self.BASE, self.pool, self.LENGTH, 71)
        after, _ = text_pool(cache, self.BASE + self.EMERGING, self.pool, self.LENGTH, 72)
        backlog, _ = text_pool(cache, self.BASE + self.EMERGING, self.backlog, self.LENGTH, 73)
        rng = np.random.default_rng(seed)
        slices = []
        for t in range(self.slices):
            pool = before if t < self.slices // 2 else after
            slices.append([pool[i] for i in rng.choice(len(pool), self.docs, replace=False)])
        return backlog, slices

    def setup(self, inputs, tracer):
        backlog_texts, slices = inputs
        pre = Preprocessor(PreprocessConfig(min_doc_count=2))
        backlog = pre.fit_transform(backlog_texts)
        with tracer.span("embeddings.build"):
            vectors = build_embeddings(backlog, dim=EMBEDDING_DIM).vectors
        return SimpleNamespace(pre=pre, backlog=backlog, vectors=vectors, slices=slices)

    def measure(self, state, tracer, pace):
        vocab_size = state.backlog.vocab_size
        online = OnlineContraTopic(
            functools.partial(ETM, vocab_size, _ntm_config(30, self.epochs), state.vectors),
            ContraTopicConfig(lambda_weight=40.0, negative_weight=3.0),
            OnlineConfig(epochs_per_slice=self.epochs),
        )
        rss_slice = max(1, math.ceil(0.1 * self.slices)) - 1
        # Only slice indices are kept: holding the slices' corpora would
        # grow memory by itself and hide the program's growth.
        fitted, docs, seconds, failed, rss_mark = [], [], [], 0, 0.0
        speeds = [pace.speed()]
        for t, texts in enumerate(state.slices):
            began, consumed = time.perf_counter(), 0
            try:
                corpus = state.pre.transform(texts)
                online.partial_fit(corpus)
                fitted.append(t)
                consumed = len(corpus)
                failed += _nonfinite_epochs(online.model.history) > 0
            except ReproError:
                traceback.print_exc()
                failed += 1
            seconds.append(time.perf_counter() - began)
            speeds.append(pace.speed())
            docs.append(consumed)
            if t == rss_slice:
                rss_mark = rss_mb()
        seconds = at_reference(seconds, speeds)
        return Outcome(
            attempted=self.slices,
            failed=failed,
            rates=window_rates(docs, seconds),
            latencies=windows(seconds),
            rss_growth_mb=rss_mb() - rss_mark,
            detail={"online": online, "fitted": fitted},
        )

    def check(self, state, outcome):
        _require_no_growth(outcome)
        online = outcome.detail["online"]
        streamed = state.pre.transform(
            [text for t in outcome.detail["fitted"] for text in state.slices[t]]
        )
        recount = DocumentCooccurrence.from_corpus(streamed, cache=False)
        try:
            online.engine.check_against(recount)
        except ReproError as exc:
            raise CheckFailed(f"streaming counts: {exc}") from exc
        outcome.topic_npmi, outcome.topic_diversity = _quality(
            online.topic_word_matrix(), compute_npmi_matrix(state.backlog)
        )
        _require_floor(outcome, self.floors)

    def layers(self, state, outcome, tracer):
        return {"online.drift_alarms": float(outcome.detail["online"].drift_alarms)}


def build(name: str, seconds: float, quick: bool = False) -> Workload:
    """The workload called ``name`` sized for ``seconds`` of measurement."""
    if name == "train-nyt":
        return TrainNyt(seconds, quick)
    if name == "seeds-20ng":
        return SeedsNg(seconds, quick)
    if name in ("serve-steady", "serve-reload"):
        return Serve(name, seconds, quick, reload=name == "serve-reload")
    if name == "stream-drift":
        return StreamDrift(seconds, quick)
    raise ValueError(f"unknown workload {name!r}")


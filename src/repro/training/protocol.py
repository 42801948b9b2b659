"""The paper's evaluation protocol, as reusable functions.

§V.B: topic coherence = average NPMI over top-10 words, reported over the
top p% of topics (p = 10%..100%); topic diversity = unique fraction of
top-25 words over the same topic selections; document representation =
km-Purity / km-NMI of KMeans over document-topic vectors with 20..100
clusters.  §V.F: every model is run for three random seeds and means are
reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.cluster.kmeans import KMeans
from repro.data.corpus import Corpus
from repro.metrics.clustering_metrics import normalized_mutual_information, purity
from repro.metrics.coherence import DEFAULT_PERCENTAGES, coherence_by_percentage
from repro.metrics.diversity import diversity_by_percentage
from repro.metrics.npmi import NpmiMatrix
from repro.models.base import NeuralTopicModel, TopicModel
from repro.tensor import no_grad
from repro.training.trainer import RunSpec, Trainer

CLUSTER_COUNTS = (20, 40, 60, 80, 100)


@dataclass
class EvaluationResult:
    """All §V.B metrics for one fitted model on one dataset.

    The ``*_std`` dictionaries are populated by
    :func:`multi_seed_evaluation` when more than one seed was run,
    enabling the paper's Table-II ``mean±std`` reporting.
    """

    model_name: str
    coherence: dict[float, float]
    diversity: dict[float, float]
    km_purity: dict[int, float] = field(default_factory=dict)
    km_nmi: dict[int, float] = field(default_factory=dict)
    coherence_std: dict[float, float] = field(default_factory=dict)
    diversity_std: dict[float, float] = field(default_factory=dict)
    km_purity_std: dict[int, float] = field(default_factory=dict)
    #: Populated by :func:`multi_seed_evaluation`: per-seed "ok" or
    #: "diverged" status.  A diverged seed is excluded from the reported
    #: means instead of silently poisoning them; its status keeps the
    #: exclusion visible.
    seed_status: dict[int, str] = field(default_factory=dict)
    #: Set by :func:`evaluate_model` when the model's outputs (topic-word
    #: matrix, document-topic vectors) contained non-finite values.  Rank
    #: statistics like the coherence top-k word selection can still come
    #: out finite on NaN inputs, so metric finiteness alone cannot catch a
    #: diverged model.
    diverged: bool = False

    def is_finite(self) -> bool:
        """True when the run converged and every metric value is finite."""
        if self.diverged:
            return False
        values = [
            *self.coherence.values(),
            *self.diversity.values(),
            *self.km_purity.values(),
            *self.km_nmi.values(),
        ]
        return bool(np.all(np.isfinite(values))) if values else True

    def summary(self) -> dict[str, float]:
        """Flat scalar summary used by reports and tests."""
        out = {
            "coherence@10%": self.coherence.get(0.1, float("nan")),
            "coherence@100%": self.coherence.get(1.0, float("nan")),
            "diversity@10%": self.diversity.get(0.1, float("nan")),
            "diversity@100%": self.diversity.get(1.0, float("nan")),
        }
        if self.km_purity:
            first = min(self.km_purity)
            last = max(self.km_purity)
            out["km_purity@min"] = self.km_purity[first]
            out["km_purity@max"] = self.km_purity[last]
        if self.seed_status:
            statuses = self.seed_status.values()
            out["seeds_ok"] = float(sum(s == "ok" for s in statuses))
            out["seeds_diverged"] = float(sum(s != "ok" for s in statuses))
        return out


def evaluate_model(
    model: TopicModel,
    test_corpus: Corpus,
    test_npmi: NpmiMatrix,
    percentages: Sequence[float] = DEFAULT_PERCENTAGES,
    cluster_counts: Sequence[int] = CLUSTER_COUNTS,
    model_name: str | None = None,
    clustering_seed: int = 0,
) -> EvaluationResult:
    """Score a fitted model with the full §V.B protocol.

    Clustering metrics are only computed when the test corpus has labels
    (20NG and Yahoo in the paper; NYTimes is skipped, as there).  Cluster
    counts exceeding the number of test documents are skipped.

    The whole protocol runs under ``no_grad()``: evaluation only reads the
    model, and recording a throwaway autodiff graph here would waste time
    and memory (``topic_word_matrix``/``transform`` guard themselves, but
    the blanket guard also covers overridden model methods).
    """
    with no_grad():
        topic_word = model.topic_word_matrix()
        diverged = not bool(np.all(np.isfinite(topic_word)))
        coherence = coherence_by_percentage(
            topic_word, test_npmi, percentages=percentages
        )
        diversity = diversity_by_percentage(
            topic_word, test_npmi, percentages=percentages
        )

        km_purity: dict[int, float] = {}
        km_nmi: dict[int, float] = {}
        if test_corpus.labels is not None:
            doc_topic = model.transform(test_corpus)
            if not bool(np.all(np.isfinite(doc_topic))):
                # KMeans over NaN vectors is meaningless; skip clustering and
                # let the diverged flag tell the story.
                diverged = True
            else:
                for n_clusters in cluster_counts:
                    if n_clusters > len(test_corpus):
                        continue
                    assignments = KMeans(
                        n_clusters, seed=clustering_seed
                    ).fit_predict(doc_topic)
                    km_purity[n_clusters] = purity(assignments, test_corpus.labels)
                    km_nmi[n_clusters] = normalized_mutual_information(
                        assignments, test_corpus.labels
                    )
    return EvaluationResult(
        model_name=model_name or type(model).__name__,
        coherence=coherence,
        diversity=diversity,
        km_purity=km_purity,
        km_nmi=km_nmi,
        diverged=diverged,
    )


def train_and_evaluate(
    model_factory: Callable[[int], TopicModel],
    train_corpus: Corpus,
    test_corpus: Corpus,
    test_npmi: NpmiMatrix,
    seed: int = 0,
    model_name: str | None = None,
    cluster_counts: Sequence[int] = CLUSTER_COUNTS,
    run_spec: RunSpec | None = None,
) -> EvaluationResult:
    """Build (with ``seed``), fit on train, and evaluate on test.

    ``run_spec`` is the declarative training configuration
    (:class:`~repro.training.trainer.RunSpec`) applied to neural models —
    e.g. ``RunSpec(guard=GuardPolicy())`` trains every seed under the
    resilience guard.  ``None`` is a plain unguarded run.  Non-neural models (which
    have no epoch loop for the engine to drive) fit directly.
    """
    model = model_factory(seed)
    if isinstance(model, NeuralTopicModel):
        Trainer(run_spec).fit(model, train_corpus)
    else:
        model.fit(train_corpus)
    return evaluate_model(
        model,
        test_corpus,
        test_npmi,
        cluster_counts=cluster_counts,
        model_name=model_name,
        clustering_seed=seed,
    )


def multi_seed_evaluation(
    model_factory: Callable[[int], TopicModel],
    train_corpus: Corpus,
    test_corpus: Corpus,
    test_npmi: NpmiMatrix,
    seeds: Sequence[int] = (0, 1, 2),
    model_name: str | None = None,
    cluster_counts: Sequence[int] = CLUSTER_COUNTS,
    workers: int | None = 1,
    registry=None,
    run_spec: RunSpec | None = None,
) -> EvaluationResult:
    """§V.F protocol: average the evaluation over several random seeds.

    A seed whose run produced non-finite metrics (a diverged model) is
    flagged as ``"diverged"`` in the result's ``seed_status`` and excluded
    from the reported means — the paper's mean±std tables are only
    meaningful over runs that actually converged.  When *every* seed
    diverged, the (NaN) mean over all of them is returned so the failure
    stays visible rather than being masked.

    The per-seed runs are independent, so they fan out over
    :class:`repro.parallel.ParallelMap` when ``workers`` allows it
    (``workers=1``, the default, is the exact in-process serial path;
    ``workers=None`` resolves via ``REPRO_WORKERS`` / CPU count).  Every
    seed is an explicit task argument, so the metrics are identical for
    every worker count.  A seed whose run *raised* (a crash, an injected
    fault from :mod:`repro.training.faults`, an escalated divergence) is
    recorded as ``"failed: <ExcType>"`` in ``seed_status`` and excluded
    exactly like a diverged seed, instead of aborting the other seeds'
    runs; only when no seed produced a result at all does this raise
    :class:`~repro.errors.ParallelExecutionError`.  ``registry``
    forwards to :class:`~repro.parallel.ParallelMap` so worker
    telemetry is merged back for ``BENCH_*.json`` reports.  ``run_spec``
    (a plain-data :class:`~repro.training.trainer.RunSpec`, picklable for
    the fan-out) applies the same declarative training configuration to
    every seed's run — see :func:`train_and_evaluate`.
    """
    from repro.parallel import ParallelMap

    def run_one_seed(seed: int) -> EvaluationResult:
        return train_and_evaluate(
            model_factory,
            train_corpus,
            test_corpus,
            test_npmi,
            seed=seed,
            model_name=model_name,
            cluster_counts=cluster_counts,
            run_spec=run_spec,
        )

    outcomes = ParallelMap(workers=workers, registry=registry).map(
        run_one_seed, list(seeds)
    )
    completed: list[tuple[int, EvaluationResult]] = []
    seed_status: dict[int, str] = {}
    for seed, outcome in zip(seeds, outcomes):
        if not outcome.ok:
            seed_status[seed] = f"failed: {outcome.error_type}"
            continue
        result = outcome.value
        seed_status[seed] = "ok" if result.is_finite() else "diverged"
        completed.append((seed, result))
    if not completed:
        from repro.errors import ParallelExecutionError

        details = "; ".join(
            f"seed {seed}: {outcome.error}"
            for seed, outcome in zip(seeds, outcomes)
        )
        raise ParallelExecutionError(
            f"every seed of the multi-seed evaluation failed ({details})"
        )
    finite = [r for seed, r in completed if seed_status[seed] == "ok"]
    merged = _mean_results(finite or [r for _, r in completed])
    merged.seed_status = seed_status
    merged.diverged = not finite
    return merged


def _mean_results(results: Sequence[EvaluationResult]) -> EvaluationResult:
    """Average metric dictionaries key-wise across seeds (with stds)."""
    if not results:
        raise ValueError("no results to aggregate")

    def mean_dict(dicts: Sequence[dict]) -> dict:
        keys = dicts[0].keys()
        return {k: float(np.mean([d[k] for d in dicts])) for k in keys}

    def std_dict(dicts: Sequence[dict]) -> dict:
        if len(dicts) < 2 or not dicts[0]:
            return {}
        keys = dicts[0].keys()
        return {k: float(np.std([d[k] for d in dicts], ddof=1)) for k in keys}

    has_clustering = bool(results[0].km_purity)
    return EvaluationResult(
        model_name=results[0].model_name,
        coherence=mean_dict([r.coherence for r in results]),
        diversity=mean_dict([r.diversity for r in results]),
        km_purity=mean_dict([r.km_purity for r in results]) if has_clustering else {},
        km_nmi=mean_dict([r.km_nmi for r in results]) if has_clustering else {},
        coherence_std=std_dict([r.coherence for r in results]),
        diversity_std=std_dict([r.diversity for r in results]),
        km_purity_std=std_dict([r.km_purity for r in results]) if has_clustering else {},
    )

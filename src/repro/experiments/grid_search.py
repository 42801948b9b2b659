"""Hyper-parameter grid search on a validation split (§V.D).

The paper: "we keep the shared hyper-parameters unchanged and perform the
grid search for other hyper-parameters such as λ, v, τ_g ... on a
validation set split from the training corpus."  This module packages that
workflow: split, sweep the regularizer grid, select by a combined
interpretability score, refit the winner on the full training set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.contratopic import ContraTopic, ContraTopicConfig
from repro.core.similarity import npmi_kernel
from repro.data.corpus import Corpus
from repro.data.loaders import train_valid_split
from repro.errors import ConfigError
from repro.metrics.coherence import topic_coherence
from repro.metrics.diversity import topic_diversity
from repro.metrics.npmi import compute_npmi_matrix
from repro.models.base import NeuralTopicModel
from repro.training.resilience import GuardPolicy
from repro.training.trainer import RunSpec, Trainer


@dataclass(frozen=True)
class GridPoint:
    """One evaluated configuration and its validation scores."""

    lambda_weight: float
    num_sampled_words: int
    coherence: float
    diversity: float
    score: float


@dataclass
class GridSearchResult:
    """All evaluated points plus the selected configuration."""

    points: list[GridPoint] = field(default_factory=list)
    #: Grid points whose training run raised, as ``"(λ=..., v=...): error"``
    #: strings.  A failed point is excluded from the selection instead of
    #: aborting the sweep (see :mod:`repro.parallel`).
    failures: list[str] = field(default_factory=list)

    @property
    def best(self) -> GridPoint:
        if not self.points:
            raise ConfigError("grid search evaluated no points")
        return max(self.points, key=lambda p: p.score)

    def as_rows(self) -> list[list[object]]:
        """Rows for :func:`repro.experiments.reporting.format_table`."""
        return [
            [p.lambda_weight, p.num_sampled_words, p.coherence, p.diversity, p.score]
            for p in sorted(self.points, key=lambda p: -p.score)
        ]


def interpretability_score(
    coherence: float, diversity: float, diversity_weight: float = 0.5
) -> float:
    """The default selection criterion: both facets matter (paper §IV.A)."""
    return coherence + diversity_weight * diversity


def grid_search_contratopic(
    backbone_factory,
    train_corpus: Corpus,
    lambda_grid: Sequence[float] = (0.0, 10.0, 40.0, 160.0),
    v_grid: Sequence[int] = (5, 10),
    valid_fraction: float = 0.2,
    kernel_temperature: float = 0.25,
    negative_weight: float = 3.0,
    gumbel_temperature: float = 0.5,
    diversity_weight: float = 0.5,
    seed: int = 0,
    workers: int | None = 1,
    registry=None,
    run_spec: RunSpec | None = None,
) -> tuple[GridSearchResult, ContraTopic]:
    """Sweep (λ, v) on a validation split, then refit the winner.

    Parameters
    ----------
    backbone_factory:
        ``(vocab_size) -> NeuralTopicModel`` building a fresh, unfitted
        backbone each call (construction must be deterministic for a fair
        comparison across grid points).
    train_corpus:
        Full training corpus; a validation split is carved out internally.
    run_spec:
        Declarative training configuration applied to every grid point
        and the final refit.  Defaults to a guarded run
        (``RunSpec(guard=GuardPolicy())``): the sweep deliberately visits
        aggressive regularizer settings, so a
        point that diverges recovers through the guard's escalation
        ladder instead of burning the whole (λ, v) cell.  The guard only
        intervenes on non-finite batches, so scores on healthy points
        are unchanged.
    workers:
        The grid points are independent train-and-score jobs, so they fan
        out over :class:`repro.parallel.ParallelMap`.  ``1`` (default) is
        the exact serial path; ``None`` resolves via ``REPRO_WORKERS`` /
        CPU count.  Scores are identical for every worker count because
        each point's model construction is deterministic and the
        validation split is drawn before the fan-out.  A point whose run
        raises is recorded in ``result.failures`` and skipped.

    Returns
    -------
    (result, final_model):
        The scored grid and a ContraTopic refitted on the *full* training
        corpus with the winning configuration.
    """
    from repro.parallel import ParallelMap, require_any_success

    if not lambda_grid or not v_grid:
        raise ConfigError("lambda_grid and v_grid must be non-empty")
    trainer = Trainer(
        run_spec if run_spec is not None else RunSpec(guard=GuardPolicy())
    )
    rng = np.random.default_rng(seed)
    train, valid = train_valid_split(train_corpus, valid_fraction, rng)
    train_npmi = compute_npmi_matrix(train)
    valid_npmi = compute_npmi_matrix(valid)
    kernel = npmi_kernel(train_npmi, temperature=kernel_temperature)

    grid = [(lw, v) for lw in lambda_grid for v in v_grid]

    def score_point(point: tuple[float, int]) -> GridPoint:
        lambda_weight, v = point
        backbone: NeuralTopicModel = backbone_factory(train.vocab_size)
        model = ContraTopic(
            backbone,
            kernel,
            ContraTopicConfig(
                lambda_weight=lambda_weight,
                num_sampled_words=v,
                gumbel_temperature=gumbel_temperature,
                negative_weight=negative_weight,
            ),
        )
        trainer.fit(model, train)
        beta = model.topic_word_matrix()
        coherence = topic_coherence(beta, valid_npmi)
        diversity = topic_diversity(beta)
        return GridPoint(
            lambda_weight=lambda_weight,
            num_sampled_words=v,
            coherence=coherence,
            diversity=diversity,
            score=interpretability_score(coherence, diversity, diversity_weight),
        )

    outcomes = ParallelMap(workers=workers, registry=registry).map(
        score_point, grid
    )
    require_any_success(outcomes, "grid-search")
    result = GridSearchResult()
    for (lambda_weight, v), outcome in zip(grid, outcomes):
        if outcome.ok:
            result.points.append(outcome.value)
        else:
            result.failures.append(f"(λ={lambda_weight}, v={v}): {outcome.error}")

    best = result.best
    full_npmi = compute_npmi_matrix(train_corpus)
    final = ContraTopic(
        backbone_factory(train_corpus.vocab_size),
        npmi_kernel(full_npmi, temperature=kernel_temperature),
        ContraTopicConfig(
            lambda_weight=best.lambda_weight,
            num_sampled_words=best.num_sampled_words,
            gumbel_temperature=gumbel_temperature,
            negative_weight=negative_weight,
        ),
    )
    trainer.fit(final, train_corpus)
    return result, final

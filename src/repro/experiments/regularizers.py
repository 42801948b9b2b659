"""Regularizer leaderboard: the objective zoo swept head-to-head.

ROADMAP item "rival regularizers under one roof": every entry of
:mod:`repro.objectives` — the paper's topic-wise contrastive term plus the
CLNTM document-wise InfoNCE (Nguyen & Luu 2021), the diversity-aware
coherence regularizer (Li et al. 2023) and the VICReg-style latent
regularizer (Xu et al. 2025) — trains the *same* backbone under the same
:class:`~repro.training.trainer.RunSpec` and is scored with the full §V.B
protocol.  One table answers "which regularizer helps, by how much, at
what cost", which the paper's Table II only answers for its own ablations.

The sweep axes are regularizer × weight × seed: objectives come in as
:class:`~repro.objectives.registry.ObjectiveSpec` rows (weights swept via
:func:`weight_grid`), and each row fans its seeds out through
:func:`~repro.training.protocol.multi_seed_evaluation`'s ``workers``
machinery, so the leaderboard is identical for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.errors import ConfigError
from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import format_table
from repro.objectives.registry import DEFAULT_WEIGHTS, ObjectiveSpec
from repro.training.protocol import EvaluationResult, multi_seed_evaluation
from repro.training.trainer import RunSpec

#: The head-to-head field: pure ELBO (the control — ``objectives=()``)
#: plus every registry objective at its calibrated default weight.
DEFAULT_OBJECTIVES: tuple[ObjectiveSpec | None, ...] = (
    None,  # rendered as the "elbo" control row
    ObjectiveSpec("contrastive"),
    ObjectiveSpec("clntm"),
    ObjectiveSpec("coherence"),
    ObjectiveSpec("vicreg"),
)

#: Clusters used by the leaderboard's km-Purity column — a single small
#: count keeps the sweep cheap while still ranking document quality.
LEADERBOARD_CLUSTERS = (20,)


def weight_grid(
    name: str, weights: Sequence[float] | None = None
) -> tuple[ObjectiveSpec, ...]:
    """Specs for one objective across a weight sweep.

    ``weights=None`` brackets the registry default with 0.5× and 2× —
    the cheap sanity sweep the leaderboard runs per objective when asked
    for weight sensitivity.
    """
    if weights is None:
        base = DEFAULT_WEIGHTS.get(name, 1.0)
        weights = (0.5 * base, base, 2.0 * base)
    if not weights:
        raise ConfigError("weight_grid needs at least one weight")
    return tuple(ObjectiveSpec(name, weight=float(w)) for w in weights)


@dataclass
class LeaderboardRow:
    """One objective's scores, averaged over seeds."""

    name: str
    weight: float
    coherence: dict[float, float]
    diversity: dict[float, float]
    km_purity: dict[int, float] = field(default_factory=dict)
    seed_status: dict[int, str] = field(default_factory=dict)

    @property
    def coherence_at_10(self) -> float:
        return self.coherence.get(0.1, float("nan"))

    @property
    def diversity_at_10(self) -> float:
        return self.diversity.get(0.1, float("nan"))

    @property
    def purity(self) -> float:
        if not self.km_purity:
            return float("nan")
        return self.km_purity[min(self.km_purity)]

    def summary(self) -> dict[str, float]:
        return {
            "coherence@10%": self.coherence_at_10,
            "diversity@10%": self.diversity_at_10,
            "km_purity": self.purity,
            "seeds_ok": float(sum(s == "ok" for s in self.seed_status.values())),
        }


@dataclass
class LeaderboardResult:
    """All rows of one sweep plus the per-row failure log."""

    rows: list[LeaderboardRow]
    #: ``row label -> per-seed status`` for rows with failed/diverged
    #: seeds, so a partially-failed sweep stays visible in reports.
    failures: dict[str, dict[int, str]] = field(default_factory=dict)

    def best(self, metric: str = "coherence@10%") -> LeaderboardRow:
        """Highest-scoring row by a :meth:`LeaderboardRow.summary` key."""
        if not self.rows:
            raise ConfigError("empty leaderboard has no best row")
        def value(row: LeaderboardRow) -> float:
            v = row.summary().get(metric, float("nan"))
            return v if v == v else float("-inf")
        return max(self.rows, key=value)

    def as_rows(self) -> list[list[object]]:
        """Table rows for :func:`format_leaderboard` and reports."""
        return [
            [
                row.name,
                row.weight,
                row.coherence_at_10,
                row.diversity_at_10,
                row.purity,
                int(row.summary()["seeds_ok"]),
            ]
            for row in self.rows
        ]


def _row_label(spec: ObjectiveSpec | None) -> str:
    if spec is None:
        return "elbo"
    default = DEFAULT_WEIGHTS.get(spec.name, 1.0)
    weight = spec.resolved_weight()
    if weight != default:
        return f"{spec.name}@{weight:g}"
    return spec.name


def regularizer_leaderboard(
    context: ExperimentContext,
    objectives: Sequence[ObjectiveSpec | None] | None = None,
    seeds: Sequence[int] = (0, 1, 2),
    workers: int | None = 1,
    registry=None,
    run_spec: RunSpec | None = None,
    backbone: str = "etm",
    cluster_counts: Sequence[int] = LEADERBOARD_CLUSTERS,
) -> LeaderboardResult:
    """Train one backbone per objective spec and rank the results.

    ``objectives`` entries are :class:`ObjectiveSpec` instances (``None``
    entries train the pure-ELBO control via ``RunSpec(objectives=())``);
    the default field is :data:`DEFAULT_OBJECTIVES`.  ``run_spec``
    supplies the shared training configuration (guard, checkpoints, faults);
    each row trains under ``replace(run_spec, objectives=...)`` so the
    *only* difference between rows is the regularizer itself.  Seeds fan
    out through :class:`repro.parallel.ParallelMap` when ``workers``
    allows, and rows are bitwise-identical for every worker count.
    """
    if objectives is None:
        objectives = DEFAULT_OBJECTIVES
    objectives = tuple(objectives)
    if not objectives:
        raise ConfigError("regularizer_leaderboard needs at least one objective")
    base_spec = run_spec or context.settings.run_spec or RunSpec()
    labeled = context.dataset.test.labels is not None
    clusters = tuple(cluster_counts) if labeled else ()
    factory = context.factory(backbone)

    rows: list[LeaderboardRow] = []
    failures: dict[str, dict[int, str]] = {}
    for spec in objectives:
        label = _row_label(spec)
        terms = () if spec is None else (spec,)
        result: EvaluationResult = multi_seed_evaluation(
            factory,
            context.dataset.train,
            context.dataset.test,
            context.npmi_test,
            seeds=tuple(seeds),
            model_name=f"{backbone}+{label}",
            cluster_counts=clusters,
            workers=workers,
            registry=registry,
            run_spec=replace(base_spec, objectives=terms),
        )
        row = LeaderboardRow(
            name=label,
            weight=0.0 if spec is None else spec.resolved_weight(),
            coherence=result.coherence,
            diversity=result.diversity,
            km_purity=result.km_purity,
            seed_status=dict(result.seed_status),
        )
        rows.append(row)
        if any(status != "ok" for status in result.seed_status.values()):
            failures[label] = dict(result.seed_status)
    def rank(row: LeaderboardRow) -> float:
        v = row.coherence_at_10
        return -(v if v == v else float("-inf"))

    rows.sort(key=rank)
    return LeaderboardResult(rows=rows, failures=failures)


def format_leaderboard(result: LeaderboardResult, dataset: str) -> str:
    """Render the leaderboard as the checked-in BENCH table."""
    table = format_table(
        ["objective", "weight", "coherence@10%", "diversity@10%", "km_purity", "seeds"],
        result.as_rows(),
        title=f"Regularizer leaderboard — {dataset}",
    )
    if result.failures:
        notes = [
            f"  {label}: " + ", ".join(
                f"seed {seed}={status}" for seed, status in sorted(statuses.items())
            )
            for label, statuses in sorted(result.failures.items())
        ]
        table = "\n".join([table, "failures:", *notes])
    return table

"""Regularizer-zoo leaderboard: every objective head-to-head on one backbone.

The composable objective pipeline (:mod:`repro.objectives`) makes the
paper's topic-wise contrastive term one entry in a registry of rival
regularizers — the CLNTM document-wise InfoNCE (Nguyen & Luu 2021), the
diversity-aware coherence regularizer (Li et al. 2023) and a VICReg-style
latent regularizer (Xu et al. 2025).  The ``regularizers`` suite of
:mod:`repro.experiments.suites` runs the sweep the refactor exists for:
the *same* ETM backbone trains once per objective (plus the pure-ELBO
control) under identical ``RunSpec`` settings, each row averaged over
several seeds fanned out in parallel, and the §V.B coherence / diversity
/ km-Purity protocol ranks the results.  The suite checks completeness:
one row per objective, every metric finite, no failed/diverged seeds.

The report roll-up carries ``regularizers_wall_seconds`` (the whole
sweep's wall-clock), which ``benchmarks/check_regression.py`` gates
against ``benchmarks/baselines/BENCH_regularizers.json``; the leaderboard
rows themselves land in the report's ``meta`` so the checked-in baseline
doubles as the reproduction record.

At strict scale this bench also asserts the paper's shape: the
topic-wise contrastive regularizer improves coherence@10% over the
pure-ELBO control.
"""

from __future__ import annotations

from benchmarks.conftest import STRICT
from repro.experiments import ExperimentSettings
from repro.experiments.suites import SuiteSettings

#: §V.F protocol: three seeds per row at strict scale; two keep the smoke
#: run (and the checked-in fast-mode baseline) honest about the
#: multi-seed path.
NUM_SEEDS = 3 if STRICT else 2


def test_regularizer_leaderboard(run_suite):
    # The reduced experiment scale: the leaderboard's point is relative
    # ranking under identical settings, which survives scale-down.
    settings = SuiteSettings(
        experiment=ExperimentSettings(dataset="20ng").fast(),
        num_seeds=NUM_SEEDS,
        # Rows are bitwise-identical for every worker count.
        workers=min(NUM_SEEDS, 3),
    )
    report = run_suite("regularizers", settings)
    if STRICT:
        by_name = {row["objective"]: row for row in report["meta"]["leaderboard"]}
        assert (
            by_name["contrastive"]["coherence@10%"] > by_name["elbo"]["coherence@10%"]
        ), "topic-wise contrastive regularizer did not improve coherence@10%"

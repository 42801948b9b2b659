"""Benchmark suites: one definition each, for the CLI, the pytest benches
and the perf guard.

A suite is one function ``(SuiteSettings) -> (registry, meta)``: it runs
its legs, records them into a fresh
:class:`~repro.telemetry.MetricsRegistry`, runs its correctness checks
(raising :class:`SuiteCheckError` when one fails) and returns the
report's ``meta``.  Beside the function, each suite declares its report
totals (:class:`~repro.telemetry.report.Total`): the registry keys each
is built from and the direction the perf guard gates it in.

``repro bench --suite <name>`` and ``benchmarks/bench_<suite>.py`` both
run :data:`SUITES`; ``benchmarks/check_regression.py`` gates
:func:`declared_totals`.  Reports built elsewhere declare theirs here
too: :data:`TRAINING_TOTALS` (the op and epoch tables of a training run)
and :data:`SERVING_TOTALS` (``repro serve`` and the serving bench).

This module sits above ``training``, ``metrics`` and ``serving``, which
:mod:`repro.telemetry` must not import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.blas import blas_threads, one_blas_thread
from repro.errors import ReproError
from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.reporting import format_table
from repro.serving.loadgen import (
    SERVING_P50_KEY,
    SERVING_P95_KEY,
    SERVING_P99_KEY,
    SERVING_REQUESTS_KEY,
    SERVING_WALL_KEY,
)
from repro.telemetry import MetricsRegistry, build_report
from repro.telemetry.callback import SAMPLER_COUNTER_PREFIX
from repro.telemetry.microbench import (
    SPARSE_BATCH,
    SPARSE_DENSE_KEY,
    SPARSE_DOCS_KEY,
    SPARSE_PROFILE_DENSITY,
    SPARSE_SPARSE_KEY,
    SPARSE_VOCAB,
)
from repro.telemetry.report import HIGHER, LOWER, Total
from repro.tensor import get_default_dtype

#: Registry key the regularizers suite records its wall time under.
REGULARIZERS_WALL_KEY = "regularizers/wall"

#: |dense loss − sparse loss| ceiling per dtype: the two legs reduce the
#: same terms in different orders, so the gap is pure float associativity.
LOSS_GAP_CEILING = {"float32": 1e-2, "float64": 1e-6}


class SuiteCheckError(ReproError):
    """A benchmark suite's correctness check failed."""


@dataclass(frozen=True)
class SuiteSettings:
    """Every knob a suite reads; each suite reads only its own."""

    experiment: ExperimentSettings = field(default_factory=ExperimentSettings)
    backbone: str = "etm"
    seed: int = 0
    num_seeds: int = 5
    workers: int | None = None
    repeats: int = 20
    dtype: str | None = None

    def dtype_name(self) -> str:
        return self.dtype or str(get_default_dtype())


@dataclass(frozen=True)
class Suite:
    """A suite's function, its declared totals and an optional renderer
    of its ``meta`` for the console."""

    name: str
    run: Callable[[SuiteSettings], tuple[MetricsRegistry, dict]]
    totals: tuple[Total, ...]
    describe: Callable[[dict], str] | None = None

    def report(
        self, settings: SuiteSettings, name: str | None = None, meta: dict | None = None
    ) -> dict:
        """Run the suite (checks included) and build its report."""
        registry, suite_meta = self.run(settings)
        return build_report(
            name or self.name,
            registry=registry,
            meta={**(meta or {}), "suite": self.name, **suite_meta},
            declared=self.totals,
        )


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise SuiteCheckError(message)


#: Totals of the op table (an op-profiled run) and of the epoch table (a
#: training run with a :class:`~repro.telemetry.TelemetryCallback`).
OP_TOTALS = (
    Total("op_seconds", better=LOWER),
    Total("op_backward_seconds", better=LOWER),
)
TRAINING_TOTALS = (
    *OP_TOTALS,
    Total("epoch_seconds", better=LOWER),
    Total("epoch_seconds_mean", better=LOWER),
    Total("docs_per_sec", better=HIGHER),
    Total("sampler_*", SAMPLER_COUNTER_PREFIX),
)

SERVING_TOTALS = (
    Total("serving_wall_seconds", SERVING_WALL_KEY, better=LOWER),
    Total("serving_p50_seconds", SERVING_P50_KEY, better=LOWER),
    Total("serving_p95_seconds", SERVING_P95_KEY, better=LOWER),
    Total("serving_p99_seconds", SERVING_P99_KEY, better=LOWER),
    Total("serving_requests", SERVING_REQUESTS_KEY),
    Total("serving_requests_per_sec", SERVING_REQUESTS_KEY, SERVING_WALL_KEY, better=HIGHER),
)


# ----------------------------------------------------------------------
# ops: every fused kernel on fixed seeded shapes
# ----------------------------------------------------------------------
def run_ops(settings: SuiteSettings) -> tuple[MetricsRegistry, dict]:
    """Forward and backward of every profiled kernel (per-op table)."""
    from repro.telemetry import profile_ops
    from repro.telemetry.microbench import run_ops_microbench
    from repro.tensor import PROFILED_FUSED_OPS

    registry = MetricsRegistry()
    # One OpenBLAS thread, as pool tasks and perfbench run: on a 2-CPU host
    # the default two threads made a fast-mode run started after idle read
    # 8-10x the baseline's op_seconds, one thread 1.4-1.5x.  The profiling
    # block also covers the microbench's warm-up round, as the checked-in
    # baseline was measured.
    with one_blas_thread(), profile_ops(registry):
        threads = blas_threads()
        run_ops_microbench(repeats=settings.repeats, dtype=settings.dtype, seed=settings.seed)
    for op in PROFILED_FUSED_OPS:
        calls = registry.counters.get(f"op/{op}.calls")
        _check(
            calls is not None and calls.value >= settings.repeats,
            f"fused kernel {op} ran fewer than {settings.repeats} times",
        )
        _check(
            registry.timers[f"op/{op}"].total_seconds > 0
            and registry.timers[f"op/{op}.backward"].total_seconds > 0,
            f"fused kernel {op} recorded no forward or backward time",
        )
    return registry, {
        "dtype": settings.dtype_name(),
        "repeats": settings.repeats,
        "seed": settings.seed,
        "blas_threads": threads,
    }


# ----------------------------------------------------------------------
# sparse: the training hot path dense vs CSR
# ----------------------------------------------------------------------
def run_sparse(settings: SuiteSettings) -> tuple[MetricsRegistry, dict]:
    """The hot path on one ≥99%-sparse bow, dense (the oracle) vs CSR."""
    from repro.telemetry.microbench import run_sparse_microbench

    registry = run_sparse_microbench(
        repeats=settings.repeats, dtype=settings.dtype, seed=settings.seed
    )
    dtype = settings.dtype_name()
    gap = registry.counters["sparse/loss_gap"].value
    _check(
        gap <= LOSS_GAP_CEILING[dtype],
        f"dense-vs-sparse loss gap {gap} exceeds the {dtype} ceiling",
    )
    density = registry.counters["sparse/profile_density"].value
    _check(density < 0.01, f"sparse profile density {density} is not < 0.01")
    meta = {
        "dtype": dtype,
        "repeats": settings.repeats,
        "seed": settings.seed,
        "batch": SPARSE_BATCH,
        "vocab": SPARSE_VOCAB,
        "density": SPARSE_PROFILE_DENSITY,
    }
    return registry, meta


# ----------------------------------------------------------------------
# regularizers: the objective-zoo leaderboard on one backbone
# ----------------------------------------------------------------------
def run_regularizers(settings: SuiteSettings) -> tuple[MetricsRegistry, dict]:
    """One backbone per objective (ELBO control + every registry entry)."""
    from repro.experiments.regularizers import (
        DEFAULT_OBJECTIVES,
        regularizer_leaderboard,
    )
    from repro.parallel import resolve_workers

    context = ExperimentContext(settings.experiment)
    seeds = tuple(range(settings.num_seeds))
    registry = MetricsRegistry()
    with registry.timer(REGULARIZERS_WALL_KEY):
        result = regularizer_leaderboard(
            context,
            seeds=seeds,
            workers=settings.workers,
            registry=registry,
            backbone=settings.backbone,
        )
    expected = {"elbo" if spec is None else spec.name for spec in DEFAULT_OBJECTIVES}
    _check(
        {row.name for row in result.rows} == expected,
        f"leaderboard rows {sorted(row.name for row in result.rows)} "
        f"are not one per objective {sorted(expected)}",
    )
    _check(not result.failures, f"failed/diverged seeds: {result.failures}")
    for row in result.rows:
        _check(
            bool(np.isfinite([row.coherence_at_10, row.diversity_at_10, row.purity]).all()),
            f"{row.name}: non-finite leaderboard metric",
        )
        _check(
            row.summary()["seeds_ok"] == len(seeds),
            f"{row.name}: {row.summary()['seeds_ok']:g} of {len(seeds)} seeds ok",
        )
    experiment = settings.experiment
    meta = {
        "dataset": experiment.dataset,
        "backbone": settings.backbone,
        "scale": experiment.scale,
        "num_topics": experiment.num_topics,
        "epochs": experiment.epochs,
        "seeds": list(seeds),
        "workers": resolve_workers(settings.workers),
        "leaderboard": [
            {"objective": row.name, "weight": row.weight, **row.summary()}
            for row in result.rows
        ],
        "best": result.best().name,
    }
    return registry, meta


def _leaderboard_table(meta: dict) -> str:
    return format_table(
        ["objective", "weight", "coherence@10%", "diversity@10%", "km_purity", "seeds"],
        [
            [
                row["objective"],
                row["weight"],
                row["coherence@10%"],
                row["diversity@10%"],
                row["km_purity"],
                int(row["seeds_ok"]),
            ]
            for row in meta["leaderboard"]
        ],
        title=f"Regularizer leaderboard — {meta['dataset']}",
    )


SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite("ops", run_ops, OP_TOTALS),
        Suite("sparse", run_sparse, (
            Total("sparse_dense_seconds", SPARSE_DENSE_KEY),
            Total("sparse_sparse_seconds", SPARSE_SPARSE_KEY, better=LOWER),
            Total("sparse_speedup", SPARSE_DENSE_KEY, SPARSE_SPARSE_KEY, better=HIGHER),
            Total("sparse_docs_per_sec", SPARSE_DOCS_KEY, SPARSE_SPARSE_KEY, better=HIGHER),
            Total("sparse_dense_docs_per_sec", SPARSE_DOCS_KEY, SPARSE_DENSE_KEY),
        )),
        Suite(
            "regularizers",
            run_regularizers,
            (Total("regularizers_wall_seconds", REGULARIZERS_WALL_KEY, better=LOWER),),
            describe=_leaderboard_table,
        ),
    )
}


def declared_totals() -> tuple[Total, ...]:
    """Every declared total, first declaration per name."""
    declared: dict[str, Total] = {}
    for totals in (
        TRAINING_TOTALS,
        SERVING_TOTALS,
        *(suite.totals for suite in SUITES.values()),
    ):
        for total in totals:
            declared.setdefault(total.name, total)
    return tuple(declared.values())

"""The benchmark-suite registry: declared totals, the gate set, checks."""

from pathlib import Path

import pytest

from benchmarks import check_regression
from repro.blas import blas_threads, set_blas_threads
from repro.experiments import suites
from repro.experiments.suites import (
    SUITES,
    SuiteCheckError,
    SuiteSettings,
    declared_totals,
)
from repro.telemetry import MetricsRegistry, build_report, load_report
from repro.telemetry.report import HIGHER, LOWER, Total, roll_up

REPO = Path(__file__).resolve().parent.parent.parent
BASELINES = sorted((REPO / "benchmarks" / "baselines").glob("BENCH_*.json"))

#: The totals the perf guard gated before the suites declared them, with
#: the direction a faster run moves each.
GATED = {
    **dict.fromkeys(
        (
            "op_seconds",
            "op_backward_seconds",
            "epoch_seconds",
            "epoch_seconds_mean",
            "sparse_sparse_seconds",
            "serving_wall_seconds",
            "serving_p50_seconds",
            "serving_p95_seconds",
            "serving_p99_seconds",
            "regularizers_wall_seconds",
        ),
        LOWER,
    ),
    **dict.fromkeys(
        (
            "docs_per_sec",
            "sparse_speedup",
            "sparse_docs_per_sec",
            "serving_requests_per_sec",
        ),
        HIGHER,
    ),
}


def test_the_guard_gates_the_same_totals_in_the_same_directions():
    gates = {t.name: t.better for t in declared_totals() if t.better}
    assert gates == GATED
    assert len(GATED) == 14


def test_every_baseline_is_checked():
    assert len(BASELINES) == 6


def test_the_perfbench_gate_keeps_the_retired_suites_gates():
    """The multi-seed and streaming gates live on in the perfbench leg."""
    path = REPO / "benchmarks" / "baselines" / "perfbench_gate.json"
    baseline = check_regression.load(path)
    gates = {t.name: t.better for t in check_regression.perfbench_gates() if t.better}
    for name in (
        "seeds-20ng/work_per_s",
        "seeds-20ng/fanout_speedup",
        "stream-drift/work_per_s",
    ):
        assert gates[name] == HIGHER
        assert baseline["totals"][name] > 0
    assert baseline["meta"]["size"]["attempted"]["stream-drift"] > 4  # not --quick
    # train-nyt rides along at full size, its peak memory gated too.
    assert gates["train-nyt/peak_rss_mb"] == LOWER
    assert baseline["totals"]["train-nyt/peak_rss_mb"] > 0
    assert baseline["meta"]["size"]["attempted"]["train-nyt"] > 2  # not --quick


@pytest.mark.parametrize("path", BASELINES, ids=lambda path: path.name)
def test_checked_in_baseline_rederives_its_totals(path):
    """The declared roll-up rebuilds each baseline's totals from its registry."""
    report = load_report(path)
    registry = MetricsRegistry()
    registry.merge_snapshot(report["registry"])
    rebuilt = build_report(
        report["name"],
        registry=registry,
        epochs=report["epochs"],
        declared=declared_totals(),
    )
    assert rebuilt["totals"] == report["totals"]
    suite = SUITES.get(report["meta"].get("suite"))
    if suite is not None:  # the suite's own declarations suffice
        own = build_report(report["name"], registry=registry, declared=suite.totals)
        assert own["totals"] == report["totals"]


class TestRollUp:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.record_seconds("leg/a", 2.0, absolute=True)
        registry.record_seconds("leg/b", 0.5, absolute=True)
        registry.count("fam/x", 3, absolute=True)
        registry.count("fam/docs", 10, absolute=True)
        registry.count("fam/zero", 0, absolute=True)
        return registry

    def test_timers_counters_ratios_and_families(self):
        totals = roll_up(
            self._registry(),
            (
                Total("a_seconds", "leg/a"),
                Total("ratio", "leg/a", "leg/b"),
                Total("docs_per_sec", "fam/docs", "leg/b"),
                Total("fam_*", "fam/"),
                Total("section_total", better=LOWER),
            ),
        )
        assert totals == {
            "a_seconds": 2.0,
            "ratio": 4.0,
            "docs_per_sec": 20.0,
            # fam/docs feeds a ratio, so the family leaves it out.
            "fam_x": 3,
            "fam_zero": 0,
        }

    def test_absent_keys_and_empty_denominators_give_no_total(self):
        registry = self._registry()
        registry.record_seconds("leg/zero", 0.0, absolute=True)
        totals = roll_up(
            registry,
            (
                Total("missing", "leg/nope"),
                Total("no_denominator", "leg/a", "leg/nope"),
                Total("zero_denominator", "leg/a", "leg/zero"),
            ),
        )
        assert totals == {}

    def test_direction_is_validated(self):
        with pytest.raises(ValueError):
            Total("x", better="faster")


class TestChecks:
    def test_sparse_loss_gap_ceiling(self, monkeypatch):
        monkeypatch.setitem(suites.LOSS_GAP_CEILING, "float32", -1.0)
        with pytest.raises(SuiteCheckError, match="loss gap"):
            SUITES["sparse"].run(SuiteSettings(repeats=1, dtype="float32"))

    def test_ops_requires_repeats_calls_per_kernel(self, monkeypatch):
        from repro.telemetry import microbench

        real = microbench.run_ops_microbench

        def short(**kwargs):
            return real(**{**kwargs, "repeats": 1})

        monkeypatch.setattr(microbench, "run_ops_microbench", short)
        with pytest.raises(SuiteCheckError, match="fewer than 5"):
            SUITES["ops"].run(SuiteSettings(repeats=5, dtype="float32"))

    @pytest.mark.skipif(blas_threads() is None, reason="no bundled OpenBLAS")
    def test_ops_times_its_kernels_on_one_blas_thread(self, monkeypatch):
        from repro.telemetry import microbench

        real = microbench.run_ops_microbench
        seen = []

        def spy(**kwargs):
            seen.append(blas_threads())
            return real(**kwargs)

        monkeypatch.setattr(microbench, "run_ops_microbench", spy)
        before = blas_threads()
        set_blas_threads(2)  # a multi-threaded caller, as on a 2+ CPU host
        try:
            _, meta = SUITES["ops"].run(SuiteSettings(repeats=1, dtype="float32"))
            after = blas_threads()
        finally:
            set_blas_threads(before)
        assert seen == [1]
        assert meta["blas_threads"] == 1
        assert after == 2

    def test_regularizers_requires_one_row_per_objective(self, monkeypatch):
        from repro.experiments import regularizers

        elbo_only = regularizers.LeaderboardResult(
            rows=[
                regularizers.LeaderboardRow(
                    "elbo", 0.0, {0.1: 0.1}, {0.1: 0.9}, {20: 0.5}, {0: "ok"}
                )
            ]
        )
        monkeypatch.setattr(
            regularizers, "regularizer_leaderboard", lambda *a, **k: elbo_only
        )
        with pytest.raises(SuiteCheckError, match="one per objective"):
            SUITES["regularizers"].run(SuiteSettings(num_seeds=1, workers=1))

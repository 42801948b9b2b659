"""BENCH reports: build/serialise round-trip and the regression compare."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry import (
    SCHEMA,
    MetricsRegistry,
    build_report,
    compare_reports,
    epoch_rows_from_history,
    format_report,
    load_report,
    write_report,
)
from benchmarks import check_regression
from repro.experiments.suites import declared_totals
from repro.telemetry.report import HIGHER, LOWER, _epoch_totals, epoch_row

REPO = Path(__file__).resolve().parent.parent.parent

#: Every total the benchmark suites declare (the perf guard's gate set).
DECLARED = declared_totals()


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    for _ in range(3):
        registry.record_seconds("op/matmul", 0.01, absolute=True)
        registry.count("op/matmul.calls", absolute=True)
        registry.count("op/matmul.bytes", 1024, absolute=True)
    registry.record_seconds("op/matmul.backward", 0.02, absolute=True)
    registry.record_seconds("op/exp", 0.002, absolute=True)
    registry.count("op/exp.calls", absolute=True)
    return registry


def _epochs() -> list[dict]:
    return [
        {
            "epoch": i,
            "epoch_seconds": 0.5,
            "docs_per_sec": 200.0,
            "elbo": 100.0 + i,
            "contrastive": 50.0,
        }
        for i in range(4)
    ]


class TestBuildReport:
    def test_ops_table(self):
        report = build_report("demo", registry=_populated_registry())
        assert report["schema"] == SCHEMA
        by_op = {row["op"]: row for row in report["ops"]}
        matmul = by_op["matmul"]
        assert matmul["calls"] == 3
        assert matmul["total_seconds"] == pytest.approx(0.03)
        assert matmul["mean_seconds"] == pytest.approx(0.01)
        assert matmul["backward_seconds"] == pytest.approx(0.02)
        assert matmul["bytes"] == 3 * 1024
        # sorted by descending forward time
        assert report["ops"][0]["op"] == "matmul"

    def test_totals_roll_up(self):
        report = build_report(
            "demo", registry=_populated_registry(), epochs=_epochs()
        )
        totals = report["totals"]
        assert totals["epochs"] == 4
        assert totals["epoch_seconds"] == pytest.approx(2.0)
        assert totals["docs_per_sec"] == pytest.approx(200.0)
        assert totals["op_seconds"] == pytest.approx(0.032)
        assert totals["op_backward_seconds"] == pytest.approx(0.02)
        assert totals["op_calls"] == 4
        assert 0 < totals["contrastive_loss_share"] < 1

    def test_meta_records_the_blas(self):
        from repro.blas import blas_name, blas_threads

        meta = build_report("demo", meta={"k": 1})["meta"]
        assert meta == {"blas": blas_name(), "blas_threads": blas_threads(), "k": 1}

    def test_epoch_rows_from_history(self):
        rows = epoch_rows_from_history(
            [{"rec": 10.0, "kl": 2.0, "extra": 5.0, "epoch": 0}]
        )
        assert rows[0]["elbo"] == pytest.approx(12.0)
        assert rows[0]["contrastive"] == pytest.approx(5.0)

    def test_format_report_mentions_key_sections(self):
        report = build_report(
            "demo", registry=_populated_registry(), epochs=_epochs()
        )
        text = format_report(report)
        assert "matmul" in text
        assert "docs/s" in text
        assert "totals" in text


    def test_format_report_prints_one_column_per_objective_term(self):
        def header(epochs):
            text = format_report(build_report("demo", epochs=epochs))
            return next(
                line.split() for line in text.splitlines() if line.startswith("epoch ")
            )

        assert header(_epochs()) == ["epoch", "seconds", "docs/s", "elbo"]
        terms = [
            {**row, "objective_contrastive": 40.0, "objective_document": 10.0}
            for row in _epochs()
        ]
        assert header(terms) == [
            "epoch", "seconds", "docs/s", "elbo", "contrastive", "document",
        ]


#: Checked-in baselines that carry an epoch table.
BASELINES_WITH_EPOCHS = [
    path
    for path in sorted((REPO / "benchmarks" / "baselines").glob("BENCH_*.json"))
    if json.loads(path.read_text(encoding="utf-8")).get("epochs")
]


def test_some_baseline_carries_epoch_rows():
    assert BASELINES_WITH_EPOCHS


@pytest.mark.parametrize("path", BASELINES_WITH_EPOCHS, ids=lambda path: path.name)
def test_checked_in_epoch_rows_rederive_identical_totals(path):
    """`epoch_row` reproduces every checked-in epoch table and its totals."""
    report = load_report(path)
    rows = []
    for row in report["epochs"]:
        logs = {
            key: value
            for key, value in row.items()
            if key not in ("run", "event", "elbo", "contrastive")
        }
        rebuilt = {
            "run": row["run"],
            "event": row["event"],
            **epoch_row(logs),
            "epoch": row["epoch"],
        }
        assert rebuilt == row
        rows.append(rebuilt)
    derived = _epoch_totals(rows)
    assert derived == {key: report["totals"][key] for key in derived}


class TestSerialisation:
    def test_write_load_round_trip(self, tmp_path):
        report = build_report(
            "demo", registry=_populated_registry(), epochs=_epochs(), meta={"k": 1}
        )
        path = write_report(report, tmp_path / "nested" / "BENCH_demo.json")
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(report))  # JSON-faithful

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="schema"):
            load_report(path)


class TestCompareReports:
    @pytest.fixture
    def baseline(self):
        return build_report("demo", registry=_populated_registry(), epochs=_epochs())

    def test_identical_reports_pass(self, baseline):
        failures, table = compare_reports(baseline, copy.deepcopy(baseline), DECLARED)
        assert failures == []
        assert "totals.epoch_seconds" in table

    def test_three_times_slower_fails(self, baseline):
        slow = copy.deepcopy(baseline)
        for key in ("op_seconds", "op_backward_seconds", "epoch_seconds",
                    "epoch_seconds_mean"):
            slow["totals"][key] *= 3.0
        slow["totals"]["docs_per_sec"] /= 3.0
        failures, table = compare_reports(baseline, slow, DECLARED, threshold=2.0)
        failed_keys = {f.split(":")[0] for f in failures}
        assert "totals.epoch_seconds" in failed_keys
        assert "totals.docs_per_sec" in failed_keys  # rates gate on slowdowns too
        assert "FAIL" in table

    def test_faster_current_passes(self, baseline):
        fast = copy.deepcopy(baseline)
        for key in ("op_seconds", "epoch_seconds", "epoch_seconds_mean"):
            fast["totals"][key] /= 3.0
        fast["totals"]["docs_per_sec"] *= 3.0
        failures, _ = compare_reports(baseline, fast, DECLARED)
        assert failures == []

    def test_noise_floor_suppresses_tiny_timings(self, baseline):
        base = copy.deepcopy(baseline)
        cur = copy.deepcopy(baseline)
        base["totals"]["op_seconds"] = 1e-5
        cur["totals"]["op_seconds"] = 1e-3  # 100x, but under the floor
        failures, table = compare_reports(base, cur, DECLARED)
        assert all("op_seconds" not in f for f in failures)
        assert "noise" in table

    @pytest.mark.parametrize(
        "drop", [("sparse_speedup", "sparse_docs_per_sec"), "all"], ids=["two", "all"]
    )
    def test_gated_total_missing_from_current_fails(self, drop):
        baseline = load_report(REPO / "benchmarks" / "baselines" / "BENCH_sparse.json")
        current = copy.deepcopy(baseline)
        if drop == "all":
            current["totals"] = {}
            drop = ("sparse_sparse_seconds", "sparse_speedup", "sparse_docs_per_sec")
        else:
            for key in drop:
                del current["totals"][key]
        failures, table = compare_reports(baseline, current, DECLARED)
        assert sorted(f.split(":")[0] for f in failures) == sorted(
            f"totals.{key}" for key in drop
        )
        missing = [line.split() for line in table.splitlines() if "missing" in line]
        assert sorted(row[0] for row in missing) == sorted(
            f"totals.{key}" for key in drop
        )
        assert all(row[-1] == "FAIL" for row in missing)

    def test_ungated_total_missing_from_current_passes(self, baseline):
        current = copy.deepcopy(baseline)
        del current["totals"]["op_calls"]  # informational, not gated
        assert compare_reports(baseline, current, DECLARED)[0] == []

    def test_threshold_must_exceed_one(self, baseline):
        with pytest.raises(ValueError):
            compare_reports(baseline, baseline, DECLARED, threshold=1.0)


class TestCheckRegressionScript:
    """benchmarks/check_regression.py end to end, as CI invokes it."""

    SCRIPT = REPO / "benchmarks" / "check_regression.py"

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *argv],
            capture_output=True,
            text=True,
        )

    def _reports(self, tmp_path):
        baseline = build_report(
            "computational_analysis",
            registry=_populated_registry(),
            epochs=_epochs(),
        )
        base_path = write_report(baseline, tmp_path / "baseline.json")
        return baseline, base_path

    def test_exit_zero_on_match(self, tmp_path):
        baseline, base_path = self._reports(tmp_path)
        cur_path = write_report(baseline, tmp_path / "current.json")
        result = self._run("--baseline", str(base_path), "--current", str(cur_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "perf-guard OK" in result.stdout

    def test_exit_one_on_regression(self, tmp_path):
        baseline, base_path = self._reports(tmp_path)
        slow = copy.deepcopy(baseline)
        for key in ("epoch_seconds", "epoch_seconds_mean", "op_seconds"):
            slow["totals"][key] *= 3.0
        cur_path = write_report(slow, tmp_path / "current.json")
        result = self._run("--baseline", str(base_path), "--current", str(cur_path))
        assert result.returncode == 1
        assert "PERF REGRESSION" in result.stdout

    def test_exit_two_on_missing_input(self, tmp_path):
        result = self._run(
            "--baseline", str(tmp_path / "nope.json"),
            "--current", str(tmp_path / "also-nope.json"),
        )
        assert result.returncode == 2

    def test_exit_two_when_the_scales_differ(self, tmp_path):
        baseline, _ = self._reports(tmp_path)
        fast = copy.deepcopy(baseline)
        fast["meta"]["fast"] = False
        base_path = write_report(fast, tmp_path / "baseline.json")
        fast["meta"]["fast"] = True
        cur_path = write_report(fast, tmp_path / "current.json")
        result = self._run("--baseline", str(base_path), "--current", str(cur_path))
        assert result.returncode == 2
        assert "meta.fast" in result.stderr

    def test_update_baseline_copies_current(self, tmp_path):
        baseline, _ = self._reports(tmp_path)
        cur_path = write_report(baseline, tmp_path / "current.json")
        new_base = tmp_path / "fresh" / "baseline.json"
        result = self._run(
            "--baseline", str(new_base),
            "--current", str(cur_path),
            "--update-baseline",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert load_report(new_base)["name"] == "computational_analysis"

    def test_compare_mode_diffs_two_reports(self, tmp_path):
        """``--compare A B``: per-total deltas, exit 0, no pass/fail gate."""
        baseline, base_path = self._reports(tmp_path)
        other = copy.deepcopy(baseline)
        other["totals"]["epoch_seconds"] *= 2.0  # would fail the gate
        other["totals"]["only_in_b"] = 1.25
        del other["totals"]["op_seconds"]
        other_path = write_report(other, tmp_path / "other.json")

        result = self._run("--compare", str(base_path), str(other_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "PERF REGRESSION" not in result.stdout
        lines = {
            line.split()[0]: line
            for line in result.stdout.splitlines()
            if line and not line.startswith(("compare:", " ", "-", "metric"))
        }
        assert "2.000x" in lines["epoch_seconds"]
        # keys missing on one side render as '-' instead of crashing
        assert "-" in lines["only_in_b"].split()
        assert "-" in lines["op_seconds"].split()

    def test_compare_mode_missing_report_exits_two(self, tmp_path):
        _, base_path = self._reports(tmp_path)
        result = self._run("--compare", str(base_path), str(tmp_path / "nope.json"))
        assert result.returncode == 2

    # perfbench results.json files, told apart from reports by their shape
    @staticmethod
    def _results(stream_slices: int = 160) -> dict:
        """A full-size perfbench run of the two gated workloads."""
        metrics = {
            "setup_s": 0.5,
            "work_per_s": 1000.0,
            "p50_ms": 50.0,
            "p99_ms": 60.0,
            "peak_rss_mb": 150.0,
            "topic_npmi": 0.4,
            "topic_diversity": 0.6,
        }

        def workload(attempted, extra):
            return {
                "correct": True,
                "attempted": attempted,
                "failed": 0,
                "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()},
                "extra": {"cpu_speed": 0.6, **extra},
            }

        return {
            "meta": {"nproc": 2, "seconds": 10, "trace": 0},
            "workloads": {
                "seeds-20ng": workload(12, {"fanout_speedup": 1.8}),
                "stream-drift": workload(stream_slices, {}),
            },
        }

    def _gate(self, tmp_path, current):
        paths = []
        for name, results in (("baseline", self._results()), ("current", current)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(results))
            paths.append(str(path))
        return self._run(
            "--threshold", "2.5", "--baseline", paths[0], "--current", paths[1]
        )

    def test_perfbench_within_the_threshold_passes(self, tmp_path):
        current = self._results()
        current["workloads"]["seeds-20ng"]["metrics"]["work_per_s"]["value"] = 500.0
        current["workloads"]["stream-drift"]["metrics"]["p99_ms"]["value"] = 120.0
        result = self._gate(tmp_path, current)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "seeds-20ng/fanout_speedup" in result.stdout
        assert "perf-guard OK" in result.stdout

    @pytest.mark.parametrize(
        "workload, metric, factor",
        [
            ("seeds-20ng", "work_per_s", 1 / 3),
            ("seeds-20ng", "fanout_speedup", 1 / 3),
            ("stream-drift", "p99_ms", 3.0),
        ],
    )
    def test_perfbench_regression_fails(self, tmp_path, workload, metric, factor):
        current = self._results()
        result = current["workloads"][workload]
        if metric in result["extra"]:
            result["extra"][metric] *= factor
        else:
            result["metrics"][metric]["value"] *= factor
        result = self._gate(tmp_path, current)
        assert result.returncode == 1, result.stdout + result.stderr
        assert f"totals.{workload}/{metric}" in result.stdout.split("PERF REGRESSION")[1]

    def test_perfbench_metric_missing_from_current_fails(self, tmp_path):
        current = self._results()
        del current["workloads"]["stream-drift"]["metrics"]["work_per_s"]
        result = self._gate(tmp_path, current)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "totals.stream-drift/work_per_s: missing" in result.stdout

    def test_perfbench_quick_run_against_full_size_exits_two(self, tmp_path):
        result = self._gate(tmp_path, self._results(stream_slices=4))
        assert result.returncode == 2, result.stdout + result.stderr
        assert "same scale" in result.stderr

    def test_perfbench_against_a_report_exits_two(self, tmp_path):
        baseline, _ = self._reports(tmp_path)
        path = write_report(baseline, tmp_path / "report.json")
        results = tmp_path / "results.json"
        results.write_text(json.dumps(self._results()))
        result = self._run("--baseline", str(results), "--current", str(path))
        assert result.returncode == 2, result.stdout + result.stderr


class TestStreamingTotals:
    """The streaming totals are ``stream-drift``'s perfbench metrics."""

    def test_streaming_totals_roll_up(self):
        results = TestCheckRegressionScript._results()
        totals = check_regression.perfbench_report(results)["totals"]
        assert totals["stream-drift/work_per_s"] == 1000.0
        assert totals["stream-drift/p99_ms"] == 60.0
        assert totals["stream-drift/cpu_speed"] == 0.6
        assert totals["seeds-20ng/fanout_speedup"] == 1.8

    def test_streaming_totals_are_gated(self):
        gates = {t.name: t.better for t in check_regression.perfbench_gates()}
        assert {k: v for k, v in gates.items() if k.startswith("stream-drift/")} == {
            "stream-drift/setup_s": LOWER,
            "stream-drift/work_per_s": HIGHER,
            "stream-drift/p50_ms": LOWER,
            "stream-drift/p99_ms": LOWER,
            "stream-drift/peak_rss_mb": LOWER,
            "stream-drift/topic_npmi": HIGHER,
            "stream-drift/topic_diversity": HIGHER,
        }

    def test_regression_guard_catches_streaming_slowdown(self):
        results = TestCheckRegressionScript._results()
        base = check_regression.perfbench_report(results)
        results["workloads"]["stream-drift"]["metrics"]["work_per_s"]["value"] /= 10.0
        slow = check_regression.perfbench_report(results)
        failures, _ = compare_reports(
            base, slow, check_regression.perfbench_gates(), threshold=2.5
        )
        assert len(failures) == 1
        assert "stream-drift/work_per_s" in failures[0]

"""Command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def _run(argv) -> str:
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0
    return out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "bert"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "imdb"])

    def test_objective_choices(self):
        args = build_parser().parse_args(
            ["train", "--objective", "elbo", "--objective-weight", "2.5"]
        )
        assert args.objective == "elbo"
        assert args.objective_weight == 2.5
        for name in ("contrastive", "clntm", "coherence", "vicreg"):
            assert (
                build_parser().parse_args(["train", "--objective", name]).objective
                == name
            )

    def test_unknown_objective_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--objective", "dropout"])


class TestCommands:
    def test_datasets(self):
        output = _run(["datasets", "--scale", "0.08"])
        assert "20ng" in output and "nytimes" in output

    def test_train_reports_metrics(self):
        output = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
            ]
        )
        assert "coherence@100%" in output
        assert "km-purity@20" in output

    def test_train_with_objective_flag(self):
        output = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--objective",
                "coherence",
            ]
        )
        assert "coherence@100%" in output

    def test_objective_rejected_for_non_neural_models(self):
        with pytest.raises(SystemExit, match="neural"):
            main(
                [
                    "train",
                    "--model",
                    "lda",
                    "--dataset",
                    "20ng",
                    "--scale",
                    "0.08",
                    "--num-topics",
                    "4",
                    "--objective",
                    "coherence",
                ],
                out=io.StringIO(),
            )

    def test_topics_prints_words(self):
        output = _run(
            [
                "topics",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--show",
                "3",
                "--num-words",
                "5",
            ]
        )
        lines = [l for l in output.splitlines() if l and not l.startswith("training")]
        assert len(lines) == 3
        assert all(len(line.split()) == 6 for line in lines)  # score + 5 words

    def test_train_evaluate_checkpoint_roundtrip(self, tmp_path):
        checkpoint = str(tmp_path / "etm.npz")
        train_out = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--checkpoint",
                checkpoint,
            ]
        )
        assert "saved checkpoint" in train_out
        eval_out = _run(
            [
                "evaluate",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--checkpoint",
                checkpoint,
            ]
        )
        assert "loaded checkpoint" in eval_out
        assert "coherence@100%" in eval_out

        def metric(text, name):
            for line in text.splitlines():
                if line.startswith(name):
                    return float(line.split()[-1])
            raise AssertionError(name)

        # the evaluated checkpoint reproduces the training run's metrics
        assert metric(train_out, "coherence@100%") == pytest.approx(
            metric(eval_out, "coherence@100%"), abs=2e-3
        )

    def test_bench_writes_telemetry_report(self, tmp_path):
        from repro.telemetry import load_report, read_jsonl

        report_path = tmp_path / "BENCH_cli.json"
        jsonl_path = tmp_path / "run.jsonl"
        output = _run(
            [
                "bench",
                "--dataset",
                "20ng",
                "--model",
                "contratopic",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--telemetry",
                str(report_path),
                "--jsonl",
                str(jsonl_path),
                "--profile-ops",
                "--name",
                "cli_smoke",
            ]
        )
        assert "wrote telemetry report" in output
        report = load_report(report_path)
        assert report["name"] == "cli_smoke"
        assert report["meta"]["profile_ops"] is True
        assert any(row["op"] == "matmul" for row in report["ops"])
        assert len(report["epochs"]) == 2
        assert report["totals"]["docs_per_sec"] > 0
        assert report["totals"]["op_calls"] > 0
        events = [r["event"] for r in read_jsonl(jsonl_path)]
        assert events[0] == "fit_start" and events[-1] == "fit_end"

    def test_bench_suite_ops_writes_report(self, tmp_path):
        from repro.telemetry import load_report
        from repro.tensor.fused import PROFILED_FUSED_OPS

        report_path = tmp_path / "BENCH_ops.json"
        output = _run(
            [
                "bench",
                "--suite",
                "ops",
                "--repeats",
                "2",
                "--dtype",
                "float32",
                "--telemetry",
                str(report_path),
            ]
        )
        assert "wrote telemetry report" in output
        report = load_report(report_path)
        assert report["meta"]["suite"] == "ops"
        assert report["meta"]["dtype"] == "float32"
        rows = {row["op"]: row for row in report["ops"]}
        for op in PROFILED_FUSED_OPS:
            assert rows[op]["calls"] >= 2
            assert rows[op]["backward_seconds"] > 0

    def test_dtype_flag_is_scoped_to_the_command(self):
        from repro.tensor import get_default_dtype

        before = get_default_dtype()
        output = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--dtype",
                "float32",
            ]
        )
        assert "coherence@100%" in output
        assert get_default_dtype() == before

    def test_bench_rejects_non_neural_model(self, tmp_path):
        with pytest.raises(SystemExit, match="neural"):
            main(
                [
                    "bench",
                    "--dataset",
                    "20ng",
                    "--model",
                    "lda",
                    "--scale",
                    "0.08",
                    "--num-topics",
                    "4",
                    "--telemetry",
                    str(tmp_path / "x.json"),
                ],
                out=io.StringIO(),
            )

    def test_lda_checkpoint_skipped(self, tmp_path):
        output = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "lda",
                "--scale",
                "0.08",
                "--num-topics",
                "4",
                "--checkpoint",
                str(tmp_path / "lda.npz"),
            ]
        )
        assert "checkpoint skipped" in output


class TestResilienceFlags:
    _base = [
        "--dataset",
        "20ng",
        "--scale",
        "0.08",
        "--num-topics",
        "6",
        "--epochs",
        "2",
    ]

    def test_train_checkpoint_dir_then_resume(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        _run(
            ["train", "--model", "etm", *self._base, "--checkpoint-dir", str(ckpt_dir)]
        )
        assert (ckpt_dir / "last.npz").exists()
        resume_out = _run(
            [
                "train",
                "--model",
                "etm",
                "--dataset",
                "20ng",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "3",
                "--resume",
                str(ckpt_dir / "last.npz"),
            ]
        )
        assert "resuming" in resume_out
        assert "coherence@100%" in resume_out

    def test_resilience_flags_rejected_for_non_neural_models(self, tmp_path):
        with pytest.raises(SystemExit, match="neural"):
            main(
                [
                    "train",
                    "--model",
                    "lda",
                    "--dataset",
                    "20ng",
                    "--scale",
                    "0.08",
                    "--num-topics",
                    "4",
                    "--guard",
                ],
                out=io.StringIO(),
            )

    def test_bench_fault_injection_surfaces_guard_counters(self, tmp_path):
        from repro.telemetry import load_report

        report_path = tmp_path / "BENCH_faults.json"
        output = _run(
            [
                "bench",
                "--model",
                "contratopic",
                *self._base,
                "--guard",
                "--inject-nan",
                "1.0",
                "--telemetry",
                str(report_path),
            ]
        )
        assert "wrote telemetry report" in output
        report = load_report(report_path)
        counters = report["registry"]["counters"]
        assert counters["guard/faults"] > 0
        assert counters["guard/skipped_batches"] > 0
        assert report["totals"]["guard_faults"] > 0
        assert report["meta"]["inject_nan"] == 1.0

    def test_bench_interrupts_require_checkpoint_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(
                [
                    "bench",
                    "--model",
                    "contratopic",
                    *self._base,
                    "--inject-interrupts",
                    "1",
                    "--telemetry",
                    str(tmp_path / "x.json"),
                ],
                out=io.StringIO(),
            )


class TestServeCommand:
    def test_serve_clean_run_writes_report(self, tmp_path):
        from repro.telemetry import load_report

        telemetry = tmp_path / "BENCH_serving.json"
        output = _run(
            [
                "serve",
                "--dataset", "20ng",
                "--scale", "0.08",
                "--num-topics", "6",
                "--epochs", "2",
                "--requests", "40",
                "--concurrency", "8",
                "--max-batch-size", "8",
                "--max-wait-ms", "1",
                "--telemetry", str(telemetry),
            ]
        )
        assert "all requests received well-formed responses" in output
        # The flags reach the service (defaults are 64 and 5.0 ms).
        assert "batch<= 8, wait 1.0ms" in output
        report = load_report(telemetry)
        totals = report["totals"]
        assert totals["serving_requests"] == 40
        assert totals["serving_p95_seconds"] >= totals["serving_p50_seconds"]
        assert report["meta"]["status_counts"]["ok"] == 40

    def test_serve_chaos_answers_every_request(self, tmp_path):
        telemetry = tmp_path / "BENCH_serving_chaos.json"
        output = _run(
            [
                "serve",
                "--dataset", "20ng",
                "--scale", "0.08",
                "--num-topics", "6",
                "--epochs", "2",
                "--requests", "60",
                "--concurrency", "8",
                "--max-batch-size", "8",
                "--max-wait-ms", "1",
                "--reload-every", "20",
                "--chaos-nan", "0.2",
                "--chaos-death", "0.1",
                "--chaos-corrupt-reloads", "1",
                "--faults-seed", "0",
                "--telemetry", str(telemetry),
            ]
        )
        assert "all requests received well-formed responses" in output
        from repro.telemetry import load_report

        meta = load_report(telemetry)["meta"]
        assert meta["chaos"] is True
        assert sum(meta["status_counts"].values()) == 60
        # The transient publication checkpoint is cleaned up afterwards.
        assert not list(tmp_path.glob("*.ckpt.npz"))


#: Smoke-size arguments for every ``bench --suite`` choice but ``train``
#: (covered by TestCommands.test_bench_writes_telemetry_report), in the
#: order of the ``--suite`` choices.
SUITE_SMOKE_ARGS = {
    "ops": ["--repeats", "2", "--dtype", "float32"],
    "sparse": ["--repeats", "1", "--dtype", "float32"],
    "regularizers": [
        "--scale", "0.08", "--num-topics", "6", "--epochs", "2",
        "--num-seeds", "1", "--workers", "1",
    ],
}


class TestBenchSuites:
    def _bench(self, suite, path):
        from repro.telemetry import load_report

        output = _run(
            ["bench", "--suite", suite, *SUITE_SMOKE_ARGS[suite],
             "--telemetry", str(path)]
        )
        assert "wrote telemetry report" in output
        return load_report(path), output

    def test_every_suite_choice_has_a_smoke_run(self):
        from repro.experiments.suites import SUITES

        for suite in ("train", *SUITE_SMOKE_ARGS):
            args = build_parser().parse_args(
                ["bench", "--suite", suite, "--telemetry", "x.json"]
            )
            assert args.suite == suite
        assert list(SUITES) == list(SUITE_SMOKE_ARGS)

    @pytest.mark.parametrize("suite", sorted(SUITE_SMOKE_ARGS))
    def test_suite_runs_through_main(self, suite, tmp_path):
        from repro.experiments.suites import SUITES

        report, output = self._bench(suite, tmp_path / f"BENCH_{suite}.json")
        assert report["name"] == suite
        assert report["meta"]["suite"] == suite
        assert "blas_threads" in report["meta"]
        # Every gated total the suite declares made it into the report.
        gated = {t.name for t in SUITES[suite].totals if t.better}
        assert gated <= set(report["totals"])
        if suite == "regularizers":
            assert "Regularizer leaderboard" in output

    @pytest.mark.parametrize("suite", ["multiseed", "streaming"])
    def test_retired_suites_are_argparse_errors(self, suite, capsys):
        """perfbench's seeds-20ng and stream-drift measure these now."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["bench", "--suite", suite, "--telemetry", "x.json"])
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

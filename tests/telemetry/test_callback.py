"""TelemetryCallback: JSONL streaming round-trip on a tiny training run."""

import io

import pytest

from repro.experiments.suites import TRAINING_TOTALS
from repro.models.prodlda import ProdLDA
from repro.telemetry import (
    MetricsRegistry,
    TelemetryCallback,
    build_report,
    epoch_rows_from_history,
    read_jsonl,
)
from repro.training import TelemetryCallback as ReexportedCallback


class TestConstruction:
    def test_path_and_stream_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryCallback(path=tmp_path / "x.jsonl", stream=io.StringIO())

    def test_reexported_from_training_package(self):
        assert ReexportedCallback is TelemetryCallback


class TestJsonlRoundTrip:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory, tiny_corpus, fast_config):
        path = tmp_path_factory.mktemp("telemetry") / "run.jsonl"
        registry = MetricsRegistry()
        callback = TelemetryCallback(path=path, registry=registry, run_name="tiny")
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        model.fit(tiny_corpus, callbacks=[callback])
        return model, callback, registry, read_jsonl(path)

    def test_event_bracket(self, run, fast_config):
        _, callback, _, records = run
        events = [r["event"] for r in records]
        assert events[0] == "fit_start"
        assert events[-1] == "fit_end"
        assert events[1:-1] == ["epoch"] * fast_config.epochs
        assert all(r["run"] == "tiny" for r in records)

    def test_file_matches_in_memory_records(self, run):
        _, callback, _, records = run
        assert records == callback.records
        assert callback.epochs == [r for r in records if r["event"] == "epoch"]

    def test_fit_start_describes_the_model(self, run, fast_config):
        model, _, _, records = run
        start = records[0]
        assert start["model"] == "ProdLDA"
        assert start["epochs_planned"] == fast_config.epochs
        assert start["batch_size"] == fast_config.batch_size
        assert start["num_parameters"] == model.num_parameters()

    def test_epoch_records_carry_loss_split_and_throughput(self, run):
        _, _, _, records = run
        for record in records:
            if record["event"] != "epoch":
                continue
            assert record["elbo"] == pytest.approx(record["rec"] + record["kl"])
            assert record["contrastive"] == pytest.approx(record.get("extra", 0.0))
            assert record["epoch_seconds"] > 0
            assert record["docs_per_sec"] > 0

    def test_epoch_records_are_the_report_epoch_rows(self, run):
        model, callback, _, _ = run
        rows = epoch_rows_from_history(model.history)
        for record, row in zip(callback.epochs, rows, strict=True):
            assert record == {
                "run": "tiny",
                "event": "epoch",
                **row,
                "epoch": int(row["epoch"]),
            }

    def test_fit_end_totals(self, run, fast_config):
        _, _, _, records = run
        end = records[-1]
        assert end["epochs_run"] == fast_config.epochs
        assert end["wall_seconds"] > 0

    def test_registry_accumulates_training_metrics(self, run, tiny_corpus, fast_config):
        _, _, registry, _ = run
        assert registry.counters["train/epochs"].value == fast_config.epochs
        assert registry.timers["train/epoch"].count == fast_config.epochs
        assert registry.timers["train/fit"].count == 1
        docs = registry.counters["train/docs"].value
        assert docs == pytest.approx(len(tiny_corpus) * fast_config.epochs, rel=0.05)


class TestAtomicJsonl:
    def test_no_tmp_left_after_a_completed_run(
        self, tiny_corpus, fast_config, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        callback = TelemetryCallback(path=path)
        ProdLDA(tiny_corpus.vocab_size, fast_config).fit(
            tiny_corpus, callbacks=[callback]
        )
        assert path.exists()
        assert not (tmp_path / "run.jsonl.tmp").exists()

    def test_interrupted_run_never_publishes_a_partial_file(
        self, fast_config, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        callback = TelemetryCallback(path=path)
        model = ProdLDA(30, fast_config)
        callback.on_fit_start(model)
        callback.on_epoch_end(model, 0, {"rec": 1.0, "kl": 0.5})
        # the "crash": on_fit_end never runs — records stay in the tmp
        # file for forensics, the final path is never created
        assert not path.exists()
        assert (tmp_path / "run.jsonl.tmp").exists()
        callback._stream.close()


class TestGuardCounterFolding:
    def test_guard_log_keys_become_registry_counters(self, fast_config):
        registry = MetricsRegistry()
        callback = TelemetryCallback(registry=registry)
        model = ProdLDA(30, fast_config)
        callback.on_fit_start(model)
        callback.on_epoch_end(
            model, 0, {"rec": 1.0, "guard_faults": 2.0, "guard_skipped_batches": 2.0}
        )
        callback.on_epoch_end(
            model, 1, {"rec": 1.0, "guard_faults": 1.0, "guard_lr_backoffs": 1.0}
        )
        callback.on_fit_end(model)
        assert registry.counters["guard/faults"].value == 3.0
        assert registry.counters["guard/skipped_batches"].value == 2.0
        assert registry.counters["guard/lr_backoffs"].value == 1.0

    def test_zero_valued_guard_keys_create_no_counters(self, fast_config):
        registry = MetricsRegistry()
        callback = TelemetryCallback(registry=registry)
        model = ProdLDA(30, fast_config)
        callback.on_fit_start(model)
        callback.on_epoch_end(model, 0, {"rec": 1.0, "guard_faults": 0.0})
        callback.on_fit_end(model)
        assert "guard/faults" not in registry.counters


class TestStreamSink:
    def test_borrowed_stream_not_closed(self, tiny_corpus, fast_config):
        stream = io.StringIO()
        callback = TelemetryCallback(stream=stream, run_name="borrowed")
        ProdLDA(tiny_corpus.vocab_size, fast_config).fit(
            tiny_corpus, callbacks=[callback]
        )
        assert not stream.closed
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert len(lines) == len(callback.records)


class TestSamplerCounters:
    """A fit that samples reports its sampler calls and log-domain
    fallbacks; a fit that does not sample reports neither."""

    def test_contrastive_fit_counts_its_sampler_calls(
        self, tiny_corpus, tiny_npmi, tiny_embeddings, fast_config
    ):
        from dataclasses import replace

        from repro.core import ContraTopic, ContraTopicConfig, npmi_kernel
        from repro.models import ETM
        from repro.training.trainer import Trainer

        config = replace(fast_config, epochs=2)
        model = ContraTopic(
            ETM(tiny_corpus.vocab_size, config, tiny_embeddings.vectors),
            npmi_kernel(tiny_npmi),
            ContraTopicConfig(),
        )
        registry = MetricsRegistry()
        callback = TelemetryCallback(registry=registry)
        Trainer().fit(model, tiny_corpus, callbacks=[callback])

        batches = config.epochs * -(-len(tiny_corpus) // config.batch_size)
        assert callback.records[-1]["sampler"] == {
            "calls": batches,
            "log_domain_fallbacks": 0,
        }
        assert registry.counters["sampler/calls"].value == batches
        assert registry.counters["sampler/log_domain_fallbacks"].value == 0
        totals = build_report("fit", registry, declared=TRAINING_TOTALS)["totals"]
        assert totals["sampler_calls"] == batches
        assert totals["sampler_log_domain_fallbacks"] == 0

    def test_fit_without_the_sampler_reports_none(self, tiny_corpus, fast_config):
        registry = MetricsRegistry()
        callback = TelemetryCallback(registry=registry)
        ProdLDA(tiny_corpus.vocab_size, fast_config).fit(
            tiny_corpus, callbacks=[callback]
        )
        assert "sampler" not in callback.records[-1]
        assert not any(key.startswith("sampler/") for key in registry.counters)

"""Trainer telemetry: the JSONL-streaming :class:`TelemetryCallback`.

The epoch loop of :meth:`repro.models.base.NeuralTopicModel.fit` already
measures per-epoch wall time and throughput (``epoch_seconds`` /
``docs_per_sec`` in the epoch logs).  This callback turns those logs into
a machine-readable record stream: one JSON object per line (JSONL), one
line per epoch, bracketed by ``fit_start`` / ``fit_end`` events — the raw
material for ``BENCH_*.json`` reports (:mod:`repro.telemetry.report`).

The loss breakdown follows the paper's §V computational analysis: each
epoch record is :func:`repro.telemetry.report.epoch_row` of the epoch
logs, which reports the backbone's ELBO terms (``rec + kl``) separately
from the regularizer total (``contrastive``, the ``extra`` loss
component) and keeps each objective-stack term as ``objective_<name>``,
so the regularizer's training cost is visible per epoch.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO

from repro.core.subset_sampling import sampler_stats
from repro.io import commit_file
from repro.nn.module import Module
from repro.telemetry.core import MetricsRegistry
from repro.telemetry.report import epoch_row
from repro.training.callbacks import Callback

#: Epoch-log prefix the resilience guard uses; matching keys are folded
#: into the registry as ``guard/<name>`` counters.
GUARD_LOG_PREFIX = "guard_"

#: Registry prefix of a fit's relaxed top-k sampler counters
#: (``sampler/calls``, ``sampler/log_domain_fallbacks``).
SAMPLER_COUNTER_PREFIX = "sampler/"


class TelemetryCallback(Callback):
    """Streams per-epoch telemetry as JSONL and aggregates for reports.

    Parameters
    ----------
    path:
        File to stream JSONL records to; opened at ``on_fit_start`` and
        closed at ``on_fit_end``.  Omit to keep records in memory only.
    stream:
        An already-open text file-like to write to instead of ``path``
        (not closed by the callback).  Mutually exclusive with ``path``.
    registry:
        Optional :class:`MetricsRegistry` that accumulates ``train/epoch``
        timings and ``train/docs`` counts alongside the record stream.
    run_name:
        Label stamped on every record (distinguishes runs sharing a sink).

    Attributes
    ----------
    records:
        Every emitted record, in order (including start/end events).
    epochs:
        Only the per-epoch records — the epoch table of a report.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        stream: IO[str] | None = None,
        registry: MetricsRegistry | None = None,
        run_name: str = "train",
    ):
        if path is not None and stream is not None:
            raise ValueError("pass either path or stream, not both")
        self.path = Path(path) if path is not None else None
        self.registry = registry
        self.run_name = run_name
        self.records: list[dict] = []
        self.epochs: list[dict] = []
        self._stream: IO[str] | None = stream
        self._owns_stream = False
        self._tmp_path: Path | None = None
        self._fit_start = 0.0
        self._sampler_mark: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _emit(self, record: dict) -> dict:
        record = {"run": self.run_name, **record}
        self.records.append(record)
        if self._stream is not None:
            self._stream.write(json.dumps(record, sort_keys=True) + "\n")
            self._stream.flush()
        return record

    # ------------------------------------------------------------------
    def on_fit_start(self, model) -> None:
        if self.path is not None:
            # Stream to a tmp file and atomically publish it at fit end:
            # a crashed run leaves the tmp behind for forensics but never
            # a truncated file at the final path.
            self._tmp_path = self.path.with_name(f"{self.path.name}.tmp")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self._tmp_path.open("w", encoding="utf-8")
            self._owns_stream = True
        self._fit_start = time.perf_counter()
        self._sampler_mark = sampler_stats()
        self.records.clear()
        self.epochs.clear()
        record = {
            "event": "fit_start",
            "model": type(model).__name__,
            "epochs_planned": int(model.config.epochs),
            "batch_size": int(model.config.batch_size),
        }
        if isinstance(model, Module):
            record["num_parameters"] = int(model.num_parameters())
        self._emit(record)

    def on_epoch_end(self, model, epoch, logs) -> bool:
        record = {"event": "epoch", **epoch_row(logs), "epoch": int(epoch)}
        self.epochs.append(self._emit(record))
        if self.registry is not None:
            for key, value in logs.items():
                if key.startswith(GUARD_LOG_PREFIX) and value:
                    self.registry.count(
                        f"guard/{key[len(GUARD_LOG_PREFIX):]}",
                        float(value),
                        absolute=True,
                    )
            self.registry.count("train/epochs", absolute=True)
            if "epoch_seconds" in logs:
                self.registry.record_seconds(
                    "train/epoch", float(logs["epoch_seconds"]), absolute=True
                )
            if "docs_per_sec" in logs and "epoch_seconds" in logs:
                self.registry.count(
                    "train/docs",
                    float(logs["docs_per_sec"]) * float(logs["epoch_seconds"]),
                    absolute=True,
                )
        return False

    def on_fit_end(self, model) -> None:
        wall = time.perf_counter() - self._fit_start
        record = {
            "event": "fit_end",
            "epochs_run": len(self.epochs),
            "wall_seconds": wall,
        }
        # The relaxed top-k sampler's calls during this fit, and how many
        # of them fell back to the log domain (a run that samples at all).
        sampled = {
            name: value - self._sampler_mark.get(name, 0)
            for name, value in sampler_stats().items()
        }
        if sampled["calls"]:
            record["sampler"] = sampled
        self._emit(record)
        if self.registry is not None:
            self.registry.record_seconds("train/fit", wall, absolute=True)
            if sampled["calls"]:
                for name, value in sampled.items():
                    self.registry.count(
                        SAMPLER_COUNTER_PREFIX + name, value, absolute=True
                    )
        if self._owns_stream and self._stream is not None:
            self._stream.flush()
            os.fsync(self._stream.fileno())
            self._stream.close()
            commit_file(self._tmp_path, self.path, category="telemetry")
            self._stream = None
            self._owns_stream = False


def read_jsonl(path: str | Path) -> list[dict]:
    """Load every record from a JSONL telemetry stream."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records

"""``BENCH_<name>.json`` reports: build, serialise, format, compare.

The benchmark suite and the CLI both aggregate telemetry into one schema
(``repro.telemetry.bench/v1``) so results are machine-comparable across
runs and machines:

* ``ops``    — per-op table from :func:`repro.telemetry.ophooks.profile_ops`
  (calls, forward/backward wall-time, bytes allocated),
* ``epochs`` — per-epoch table from :class:`~repro.telemetry.callback.
  TelemetryCallback` (wall time, docs/sec throughput, ELBO vs contrastive
  loss split),
* ``totals`` — the scalar roll-up that CI's perf-guard
  (``benchmarks/check_regression.py``) compares against a baseline.

Timings depend on the machine; the regression comparison therefore uses a
tolerant ratio threshold (default 2x) and treats sub-millisecond baseline
entries as noise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.io import atomic_write
from repro.telemetry.core import MetricsRegistry
from repro.telemetry.ophooks import OP_PREFIX

SCHEMA = "repro.telemetry.bench/v1"

#: Baseline timings below this many seconds are noise, not signal; the
#: regression comparison reports them but never fails on them.
NOISE_FLOOR_SECONDS = 1e-3

#: Registry timer keys the multi-seed benchmark records its serial and
#: parallel wall-clock under (``python -m repro bench --suite multiseed``
#: and ``benchmarks/bench_parallel_multiseed.py``).  :func:`build_report`
#: rolls them into ``totals`` so the CI perf-guard can gate them.
MULTISEED_SERIAL_KEY = "multiseed/serial"
MULTISEED_PARALLEL_KEY = "multiseed/parallel"

#: Registry keys the sparse-vs-dense benchmark records under
#: (``python -m repro bench --suite sparse`` and
#: ``benchmarks/bench_sparse_ops.py``): wall-clock of the dense reference
#: leg, wall-clock of the CSR fast-path leg, and the number of documents
#: each leg pushed through the hot path.  :func:`build_report` rolls them
#: into ``totals`` (including the ``sparse_speedup`` ratio and the
#: per-leg docs/sec) so the CI perf-guard can gate the fast path.
SPARSE_DENSE_KEY = "sparse/dense"
SPARSE_SPARSE_KEY = "sparse/sparse"
SPARSE_DOCS_KEY = "sparse/docs"

#: Registry keys the serving load generator records under
#: (``python -m repro serve`` and ``benchmarks/bench_serving.py``):
#: end-to-end wall-clock of the load run, per-request latency
#: percentiles, and the number of requests submitted.
#: :func:`build_report` rolls them into ``totals``
#: (``serving_p50_seconds``/``p95``/``p99``, ``serving_wall_seconds``
#: and the ``serving_requests_per_sec`` throughput) so the CI perf-guard
#: can gate the online inference service.
SERVING_WALL_KEY = "serving/wall"
SERVING_P50_KEY = "serving/p50"
SERVING_P95_KEY = "serving/p95"
SERVING_P99_KEY = "serving/p99"
SERVING_REQUESTS_KEY = "serving/requests_total"

#: Registry keys the streaming-kernel benchmark records under
#: (``python -m repro bench --suite streaming`` and
#: ``benchmarks/bench_streaming.py``): wall-clock of the incremental
#: delta-update leg, wall-clock of the from-scratch recount leg, and the
#: number of documents each leg streamed.  :func:`build_report` rolls
#: them into ``totals`` (including the ``streaming_speedup`` ratio and
#: ``streaming_docs_per_sec``) so the CI perf-guard can gate the
#: incremental engine; the ``streaming/*`` counters published by
#: :func:`repro.metrics.streaming.record_streaming_stats` (updates,
#: delta_nnz, buffer reuses) and the ``npmi_cache/*`` hit/miss counters
#: become ``streaming_*`` / ``npmi_cache_*`` totals alongside them.
STREAMING_UPDATE_KEY = "streaming/update"
STREAMING_RECOUNT_KEY = "streaming/recount"
STREAMING_DOCS_KEY = "streaming/docs"
STREAMING_COUNTER_PREFIX = "streaming/"
NPMI_CACHE_COUNTER_PREFIX = "npmi_cache/"

#: wall-clock of one full regularizer-leaderboard sweep
#: (:func:`repro.experiments.regularizers.regularizer_leaderboard`).
#: :func:`build_report` surfaces it as ``regularizers_wall_seconds``,
#: which :data:`TIME_TOTALS` gates against ``BENCH_regularizers``.
REGULARIZERS_WALL_KEY = "regularizers/wall"


def _op_table(registry: MetricsRegistry) -> list[dict]:
    """Extract the per-op rows from a registry's ``op/*`` keys."""
    ops: dict[str, dict] = {}

    def row(op: str) -> dict:
        return ops.setdefault(
            op,
            {
                "op": op,
                "calls": 0,
                "total_seconds": 0.0,
                "mean_seconds": 0.0,
                "backward_seconds": 0.0,
                "bytes": 0,
            },
        )

    for key, stat in registry.timers.items():
        if not key.startswith(OP_PREFIX):
            continue
        name = key[len(OP_PREFIX):]
        if name.endswith(".backward"):
            row(name[: -len(".backward")])["backward_seconds"] = stat.total_seconds
        elif "." not in name:
            entry = row(name)
            entry["total_seconds"] = stat.total_seconds
            entry["mean_seconds"] = stat.mean_seconds
    for key, counter in registry.counters.items():
        if not key.startswith(OP_PREFIX):
            continue
        name = key[len(OP_PREFIX):]
        if name.endswith(".calls"):
            row(name[: -len(".calls")])["calls"] = int(counter.value)
        elif name.endswith(".bytes"):
            row(name[: -len(".bytes")])["bytes"] = int(counter.value)
    return sorted(ops.values(), key=lambda r: -r["total_seconds"])


def _epoch_totals(epochs: Sequence[dict]) -> dict:
    """Scalar roll-up of an epoch table."""
    if not epochs:
        return {}
    seconds = [e.get("epoch_seconds", 0.0) for e in epochs]
    throughput = [e["docs_per_sec"] for e in epochs if "docs_per_sec" in e]
    elbo = [e.get("elbo", 0.0) for e in epochs]
    contrastive = [e.get("contrastive", 0.0) for e in epochs]
    totals = {
        "epochs": len(epochs),
        "epoch_seconds": float(sum(seconds)),
        "epoch_seconds_mean": float(sum(seconds)) / len(epochs),
        "elbo_mean": float(sum(elbo)) / len(epochs),
        "contrastive_mean": float(sum(contrastive)) / len(epochs),
    }
    if throughput:
        totals["docs_per_sec"] = float(sum(throughput)) / len(throughput)
    denominator = abs(totals["elbo_mean"]) + abs(totals["contrastive_mean"])
    if denominator > 0:
        totals["contrastive_loss_share"] = abs(totals["contrastive_mean"]) / denominator
    # Guard recovery actions (repro.training.resilience) roll up as sums,
    # so a report makes divergences-and-recoveries visible at a glance.
    guard_keys = {k for e in epochs for k in e if k.startswith("guard_")}
    for key in sorted(guard_keys):
        totals[key] = float(sum(e.get(key, 0.0) for e in epochs))
    # Per-term objective contributions (repro.objectives): every enabled
    # stack term logs its weighted per-epoch mean as ``objective_<name>``,
    # which rolls up here as ``objective_<name>_loss`` so reports show one
    # scalar per regularizer.
    objective_keys = {k for e in epochs for k in e if k.startswith("objective_")}
    for key in sorted(objective_keys):
        totals[f"{key}_loss"] = float(sum(e.get(key, 0.0) for e in epochs))
    return totals


def build_report(
    name: str,
    registry: MetricsRegistry | None = None,
    epochs: Sequence[dict] | None = None,
    meta: dict | None = None,
) -> dict:
    """Assemble a ``repro.telemetry.bench/v1`` report dictionary."""
    ops = _op_table(registry) if registry is not None else []
    epoch_rows = [dict(e) for e in (epochs or [])]
    totals: dict = dict(_epoch_totals(epoch_rows))
    if ops:
        totals["op_seconds"] = float(sum(r["total_seconds"] for r in ops))
        totals["op_backward_seconds"] = float(sum(r["backward_seconds"] for r in ops))
        totals["op_calls"] = int(sum(r["calls"] for r in ops))
        totals["op_bytes"] = int(sum(r["bytes"] for r in ops))
    if registry is not None:
        serial = registry.timers.get(MULTISEED_SERIAL_KEY)
        parallel = registry.timers.get(MULTISEED_PARALLEL_KEY)
        if serial is not None and serial.count:
            totals["multiseed_serial_seconds"] = float(serial.total_seconds)
        if parallel is not None and parallel.count:
            totals["multiseed_parallel_seconds"] = float(parallel.total_seconds)
        if (
            serial is not None
            and parallel is not None
            and serial.count
            and parallel.total_seconds > 0
        ):
            totals["multiseed_speedup"] = float(
                serial.total_seconds / parallel.total_seconds
            )
        dense_leg = registry.timers.get(SPARSE_DENSE_KEY)
        sparse_leg = registry.timers.get(SPARSE_SPARSE_KEY)
        docs = registry.counters.get(SPARSE_DOCS_KEY)
        if dense_leg is not None and dense_leg.count:
            totals["sparse_dense_seconds"] = float(dense_leg.total_seconds)
        if sparse_leg is not None and sparse_leg.count:
            totals["sparse_sparse_seconds"] = float(sparse_leg.total_seconds)
        if (
            dense_leg is not None
            and sparse_leg is not None
            and dense_leg.count
            and sparse_leg.total_seconds > 0
        ):
            totals["sparse_speedup"] = float(
                dense_leg.total_seconds / sparse_leg.total_seconds
            )
        if docs is not None and docs.value:
            if sparse_leg is not None and sparse_leg.total_seconds > 0:
                totals["sparse_docs_per_sec"] = float(
                    docs.value / sparse_leg.total_seconds
                )
            if dense_leg is not None and dense_leg.total_seconds > 0:
                totals["sparse_dense_docs_per_sec"] = float(
                    docs.value / dense_leg.total_seconds
                )
        for key, total in (
            (SERVING_WALL_KEY, "serving_wall_seconds"),
            (SERVING_P50_KEY, "serving_p50_seconds"),
            (SERVING_P95_KEY, "serving_p95_seconds"),
            (SERVING_P99_KEY, "serving_p99_seconds"),
        ):
            stat = registry.timers.get(key)
            if stat is not None and stat.count:
                totals[total] = float(stat.total_seconds)
        wall = registry.timers.get(SERVING_WALL_KEY)
        served = registry.counters.get(SERVING_REQUESTS_KEY)
        if served is not None and served.value:
            totals["serving_requests"] = int(served.value)
            if wall is not None and wall.total_seconds > 0:
                totals["serving_requests_per_sec"] = float(
                    served.value / wall.total_seconds
                )
        update_leg = registry.timers.get(STREAMING_UPDATE_KEY)
        recount_leg = registry.timers.get(STREAMING_RECOUNT_KEY)
        stream_docs = registry.counters.get(STREAMING_DOCS_KEY)
        if update_leg is not None and update_leg.count:
            totals["streaming_update_seconds"] = float(update_leg.total_seconds)
        if recount_leg is not None and recount_leg.count:
            totals["streaming_recount_seconds"] = float(recount_leg.total_seconds)
        if (
            update_leg is not None
            and recount_leg is not None
            and recount_leg.count
            and update_leg.total_seconds > 0
        ):
            totals["streaming_speedup"] = float(
                recount_leg.total_seconds / update_leg.total_seconds
            )
        if (
            stream_docs is not None
            and stream_docs.value
            and update_leg is not None
            and update_leg.total_seconds > 0
        ):
            totals["streaming_docs_per_sec"] = float(
                stream_docs.value / update_leg.total_seconds
            )
        for key, counter in registry.counters.items():
            for prefix in (STREAMING_COUNTER_PREFIX, NPMI_CACHE_COUNTER_PREFIX):
                if key.startswith(prefix) and key != STREAMING_DOCS_KEY:
                    totals[key.replace("/", "_", 1)] = int(counter.value)
        regularizers_wall = registry.timers.get(REGULARIZERS_WALL_KEY)
        if regularizers_wall is not None and regularizers_wall.count:
            totals["regularizers_wall_seconds"] = float(
                regularizers_wall.total_seconds
            )
    report = {
        "schema": SCHEMA,
        "name": name,
        "meta": dict(meta or {}),
        "ops": ops,
        "epochs": epoch_rows,
        "totals": totals,
    }
    if registry is not None:
        report["registry"] = registry.snapshot()
    return report


def epoch_row(logs: dict) -> dict:
    """One report epoch row from one epoch's logs (a ``history`` entry).

    Adds ``elbo`` (``rec + kl``) and ``contrastive``, the regularizer
    total the objective stack logs as ``extra``; the per-term values stay
    in the row as ``objective_<name>``.
    """
    return {
        **{k: float(v) for k, v in logs.items()},
        "elbo": float(logs.get("rec", 0.0)) + float(logs.get("kl", 0.0)),
        "contrastive": float(logs.get("extra", 0.0)),
    }


def epoch_rows_from_history(history: Sequence[dict]) -> list[dict]:
    """Adapt ``NeuralTopicModel.history`` entries to report epoch rows."""
    return [epoch_row(entry) for entry in history]


def write_report(report: dict, path: str | Path) -> Path:
    """Serialise a report atomically; returns the written path.

    Uses the shared tmp + fsync + rename helper, so an interrupted run
    never leaves a truncated ``BENCH_*.json`` behind.
    """
    path = Path(path)
    with atomic_write(path, "w", category="report") as fp:
        json.dump(report, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


def load_report(path: str | Path) -> dict:
    """Load a report written by :func:`write_report`; validates the schema."""
    with Path(path).open("r", encoding="utf-8") as fp:
        report = json.load(fp)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, got {report.get('schema')!r}"
        )
    return report


def _format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Minimal fixed-width table (kept local to avoid layering on
    :mod:`repro.experiments`, which sits above telemetry)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_report(report: dict, max_ops: int = 12) -> str:
    """Human-readable summary of a report (op table, epochs, totals)."""
    blocks = [f"BENCH report {report['name']!r} ({report['schema']})"]
    if report["ops"]:
        rows = [
            [
                r["op"],
                r["calls"],
                f"{r['total_seconds']:.4f}",
                f"{r['backward_seconds']:.4f}",
                f"{r['bytes'] / 1e6:.1f}",
            ]
            for r in report["ops"][:max_ops]
        ]
        blocks.append(
            _format_table(
                ["op", "calls", "fwd s", "bwd s", "MB"],
                rows,
                title=f"top ops by forward time (of {len(report['ops'])})",
            )
        )
    if report["epochs"]:
        first, last = report["epochs"][0], report["epochs"][-1]
        # One column per objective-stack term the rows carry.
        terms = [k for k in {**first, **last} if k.startswith("objective_")]
        rows = [
            [
                e["epoch"],
                f"{e.get('epoch_seconds', 0.0):.3f}",
                f"{e.get('docs_per_sec', 0.0):.0f}",
                f"{e.get('elbo', 0.0):.3f}",
                *(f"{e.get(k, 0.0):.3f}" for k in terms),
            ]
            for e in (first, last)
        ]
        blocks.append(
            _format_table(
                ["epoch", "seconds", "docs/s", "elbo"]
                + [k[len("objective_"):] for k in terms],
                rows,
                title=f"epochs (first/last of {len(report['epochs'])})",
            )
        )
    if report["totals"]:
        rows = [[k, f"{v:.6g}"] for k, v in sorted(report["totals"].items())]
        blocks.append(_format_table(["total", "value"], rows, title="totals"))
    return "\n\n".join(blocks)


def summarize_report(report: dict) -> str:
    """One compact per-suite summary table for CI job logs.

    Unlike :func:`format_report` (the full dump), this is the short block
    ``benchmarks/check_regression.py`` prints for every suite **on pass as
    well as on failure**, so a green job still shows what was measured:
    suite name, op/epoch row counts, and the gated totals.
    """
    totals = report.get("totals", {})
    suite = report.get("meta", {}).get("suite", report.get("name", "?"))
    rows: list[list[str]] = [
        ["suite", str(suite)],
        ["ops rows", str(len(report.get("ops", [])))],
        ["epoch rows", str(len(report.get("epochs", [])))],
    ]
    for key in (*TIME_TOTALS, *RATE_TOTALS):
        if key in totals:
            rows.append([f"totals.{key}", f"{totals[key]:.6g}"])
    return _format_table(
        ["metric", "value"],
        rows,
        title=f"suite summary: {report.get('name', '?')}",
    )


# ----------------------------------------------------------------------
# regression comparison (consumed by benchmarks/check_regression.py)
# ----------------------------------------------------------------------

#: totals keys where *larger* current values mean a slowdown.
TIME_TOTALS = (
    "op_seconds",
    "op_backward_seconds",
    "epoch_seconds",
    "epoch_seconds_mean",
    "multiseed_serial_seconds",
    "multiseed_parallel_seconds",
    "sparse_sparse_seconds",
    "serving_wall_seconds",
    "serving_p50_seconds",
    "serving_p95_seconds",
    "serving_p99_seconds",
    "streaming_update_seconds",
    "regularizers_wall_seconds",
)

#: totals keys where *smaller* current values mean a slowdown.
RATE_TOTALS = (
    "docs_per_sec",
    "multiseed_speedup",
    "sparse_speedup",
    "sparse_docs_per_sec",
    "serving_requests_per_sec",
    "streaming_speedup",
    "streaming_docs_per_sec",
    "streaming_buffer_reuses",
)


def compare_reports(
    baseline: dict, current: dict, threshold: float = 2.0
) -> tuple[list[str], str]:
    """Compare two reports' totals; returns (failures, diff table text).

    A timing total fails when ``current > threshold * baseline``; a rate
    total (throughput) fails when ``current < baseline / threshold``.
    Baseline entries under :data:`NOISE_FLOOR_SECONDS` are informational
    only.  Per-op rows are always informational — per-op wall times are
    too noisy on shared runners to gate on.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1")
    failures: list[str] = []
    rows: list[list[str]] = []

    def add_row(label: str, base: float, cur: float, slower_when: str) -> None:
        ratio = cur / base if base else float("inf")
        gated = base >= NOISE_FLOOR_SECONDS or slower_when == "lower"
        if slower_when == "higher":
            failed = gated and ratio > threshold
        else:
            failed = base > 0 and cur < base / threshold
        status = "FAIL" if failed else "ok"
        if not gated and slower_when == "higher":
            status = "noise"
        rows.append([label, f"{base:.6g}", f"{cur:.6g}", f"{ratio:.2f}x", status])
        if failed:
            failures.append(
                f"{label}: {cur:.6g} vs baseline {base:.6g} "
                f"(ratio {ratio:.2f}, threshold {threshold:.2f})"
            )

    base_totals = baseline.get("totals", {})
    cur_totals = current.get("totals", {})
    for key in TIME_TOTALS:
        if key in base_totals and key in cur_totals:
            add_row(f"totals.{key}", base_totals[key], cur_totals[key], "higher")
    for key in RATE_TOTALS:
        if key in base_totals and key in cur_totals:
            add_row(f"totals.{key}", base_totals[key], cur_totals[key], "lower")

    base_ops = {r["op"]: r for r in baseline.get("ops", [])}
    for row in current.get("ops", []):
        base_row = base_ops.get(row["op"])
        if base_row is None or base_row["total_seconds"] < NOISE_FLOOR_SECONDS:
            continue
        ratio = (
            row["total_seconds"] / base_row["total_seconds"]
            if base_row["total_seconds"]
            else float("inf")
        )
        rows.append(
            [
                f"op.{row['op']}",
                f"{base_row['total_seconds']:.6g}",
                f"{row['total_seconds']:.6g}",
                f"{ratio:.2f}x",
                "info",
            ]
        )

    table = _format_table(
        ["metric", "baseline", "current", "ratio", "status"],
        rows,
        title=(
            f"perf-guard: {current.get('name')} vs baseline "
            f"(threshold {threshold:.2f}x)"
        ),
    )
    return failures, table

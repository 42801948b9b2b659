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
  (``benchmarks/check_regression.py``) compares against a baseline: the
  op and epoch tables' sums plus the :class:`Total` declarations the
  caller passes.  Each benchmark suite declares its own
  (:mod:`repro.experiments.suites`), with the direction the guard gates.

Timings depend on the machine; the regression comparison therefore uses a
tolerant ratio threshold (default 2x) and treats sub-millisecond baseline
entries as noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.blas import blas_name, blas_threads
from repro.io import atomic_write
from repro.telemetry.core import MetricsRegistry
from repro.telemetry.ophooks import OP_PREFIX

SCHEMA = "repro.telemetry.bench/v1"

#: Baseline timings below this many seconds are noise, not signal; the
#: regression comparison reports them but never fails on them.
NOISE_FLOOR_SECONDS = 1e-3

#: Directions of a gated total: the way a faster run moves it.
LOWER = "lower"
HIGHER = "higher"


@dataclass(frozen=True)
class Total:
    """One report total, declared by the suite that records its keys.

    ``numerator`` and the optional ``denominator`` name registry keys. A
    timer reads as its total seconds once it has a sample, a counter as
    its integer count; with a denominator the total is their ratio,
    present when the denominator is positive.  A ``numerator`` ending in
    ``/`` declares a counter family: every counter under that prefix
    that no other declaration reads becomes a total named after its key
    (``a/b`` → ``a_b``).  Without a numerator the total comes from the
    report's op or epoch table, and the declaration only gives its
    direction.

    ``better`` is :data:`LOWER` or :data:`HIGHER` for a total the perf
    guard gates, ``None`` for an informational one.
    """

    name: str
    numerator: str | None = None
    denominator: str | None = None
    better: str | None = None

    def __post_init__(self) -> None:
        if self.better not in (None, LOWER, HIGHER):
            raise ValueError(f"{self.name}: better must be lower/higher/None")

    @property
    def family(self) -> bool:
        return self.numerator is not None and self.numerator.endswith("/")


def _read(registry: MetricsRegistry, key: str) -> float | int | None:
    """A timer's total seconds (once sampled) or a counter's count."""
    stat = registry.timers.get(key)
    if stat is not None and stat.count:
        return float(stat.total_seconds)
    counter = registry.counters.get(key)
    return None if counter is None else int(counter.value)


def roll_up(registry: MetricsRegistry, declared: Sequence[Total]) -> dict:
    """The ``declared`` registry-derived totals ``registry`` can supply."""
    read = {
        key
        for total in declared
        if not total.family
        for key in (total.numerator, total.denominator)
        if key is not None
    }
    totals: dict = {}
    for total in declared:
        if total.family:
            for key, counter in registry.counters.items():
                if key.startswith(total.numerator) and key not in read:
                    totals[key.replace("/", "_", 1)] = int(counter.value)
            continue
        if total.numerator is None:
            continue
        value = _read(registry, total.numerator)
        if value is None:
            continue
        if total.denominator is None:
            totals[total.name] = value
            continue
        denominator = _read(registry, total.denominator)
        if denominator is not None and denominator > 0:
            totals[total.name] = float(value / denominator)
    return totals


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
    # scalar per term.
    objective_keys = {k for e in epochs for k in e if k.startswith("objective_")}
    for key in sorted(objective_keys):
        totals[f"{key}_loss"] = float(sum(e.get(key, 0.0) for e in epochs))
    return totals


def build_report(
    name: str,
    registry: MetricsRegistry | None = None,
    epochs: Sequence[dict] | None = None,
    meta: dict | None = None,
    declared: Sequence[Total] = (),
) -> dict:
    """Assemble a ``repro.telemetry.bench/v1`` report dictionary.

    ``totals`` holds the op and epoch table roll-ups plus every
    ``declared`` total the registry can supply (:func:`roll_up`).
    ``meta`` always records the BLAS and its thread count.
    """
    ops = _op_table(registry) if registry is not None else []
    epoch_rows = [dict(e) for e in (epochs or [])]
    totals: dict = dict(_epoch_totals(epoch_rows))
    if ops:
        totals["op_seconds"] = float(sum(r["total_seconds"] for r in ops))
        totals["op_backward_seconds"] = float(sum(r["backward_seconds"] for r in ops))
        totals["op_calls"] = int(sum(r["calls"] for r in ops))
        totals["op_bytes"] = int(sum(r["bytes"] for r in ops))
    if registry is not None:
        totals.update(roll_up(registry, declared))
    report = {
        "schema": SCHEMA,
        "name": name,
        "meta": {"blas": blas_name(), "blas_threads": blas_threads(), **(meta or {})},
        "ops": ops,
        "epochs": epoch_rows,
        "totals": totals,
    }
    if registry is not None:
        report["registry"] = registry.snapshot()
    return report


def epoch_row(logs: dict) -> dict:
    """One report epoch row from one epoch's logs (a ``history`` entry).

    Adds ``elbo`` (``rec + kl``) and ``contrastive``, the sum of the extra
    terms the objective stack logs as ``extra``; the per-term values stay
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


def summarize_report(report: dict, declared: Sequence[Total]) -> str:
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
    for key in _gates(declared):
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

def _gates(declared: Sequence[Total]) -> dict[str, str]:
    """``total name -> direction`` of every gated declaration."""
    return {total.name: total.better for total in declared if total.better}


def compare_reports(
    baseline: dict,
    current: dict,
    declared: Sequence[Total],
    threshold: float = 2.0,
) -> tuple[list[str], str]:
    """Compare two reports' gated totals; returns (failures, diff table text).

    The gated totals are the ``declared`` ones with a direction.  A
    :data:`LOWER` total fails when ``current > threshold * baseline``, a
    :data:`HIGHER` one when ``current < baseline / threshold``.
    :data:`LOWER` baselines under :data:`NOISE_FLOOR_SECONDS` are
    informational only.  A gated total the baseline has and the current
    report lacks fails as ``missing``.  Per-op rows are always
    informational — per-op wall times are too noisy on shared runners to
    gate on.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1")
    failures: list[str] = []
    rows: list[list[str]] = []
    base_totals = baseline.get("totals", {})
    cur_totals = current.get("totals", {})
    for key, better in _gates(declared).items():
        if key not in base_totals:
            continue
        label, base = f"totals.{key}", base_totals[key]
        if key not in cur_totals:
            rows.append([label, f"{base:.6g}", "missing", "-", "FAIL"])
            failures.append(f"{label}: missing from the current report")
            continue
        cur = cur_totals[key]
        ratio = cur / base if base else float("inf")
        if better == LOWER:
            gated = base >= NOISE_FLOOR_SECONDS
            failed = gated and ratio > threshold
        else:
            gated = True
            failed = base > 0 and cur < base / threshold
        status = "FAIL" if failed else ("ok" if gated else "noise")
        rows.append([label, f"{base:.6g}", f"{cur:.6g}", f"{ratio:.2f}x", status])
        if failed:
            failures.append(
                f"{label}: {cur:.6g} vs baseline {base:.6g} "
                f"(ratio {ratio:.2f}, threshold {threshold:.2f})"
            )

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

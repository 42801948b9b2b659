"""CI perf-guard: compare a benchmark run against its checked-in baseline.

Usage (from the repository root, after a smoke benchmark run emitted
``BENCH_computational_analysis.json`` into the current directory)::

    REPRO_BENCH_FAST=1 python -m pytest benchmarks/bench_computational_analysis.py -q
    python benchmarks/check_regression.py

Exits 0 when every gated total is within ``--threshold`` (default 2x —
deliberately tolerant, shared CI runners are noisy) of the checked-in
baseline, 1 when any gated total regressed or went missing, 2 on bad
inputs — including a baseline and a current report measured at
different scales (``meta.fast`` differs).  The diff table is printed
either way.  Per-op rows are informational only.

The gated totals, and the direction each is gated in, are the ones the
benchmark suites declare (:func:`repro.experiments.suites.declared_totals`):
a ``lower`` total fails when the current value exceeds ``threshold`` ×
baseline, a ``higher`` one when it falls below baseline / ``threshold``,
and a gated total present in the baseline but absent from the current
report fails as ``missing``.  The guard works on any pair of
``BENCH_*.json`` reports; CI's perf-guard matrix job runs it once per
suite, e.g.::

    REPRO_BENCH_FAST=1 python -m pytest benchmarks/bench_fused_ops.py -q
    python benchmarks/check_regression.py --threshold 2.5 \
        --baseline benchmarks/baselines/BENCH_ops.json \
        --current BENCH_ops.json

It also reads perfbench's ``results.json``, told apart by its shape (a
``workloads`` key where a report has ``schema``).  Each workload's
end-to-end metrics, and the :data:`EXTRA_GATES` values it reports,
become totals named ``<workload>/<metric>``, gated in the direction
``BENCHMARK.json`` (or :data:`EXTRA_GATES`) gives.  Two results files
must share their ``--seconds`` and ``--trace`` and, for every workload
both ran, the number of operations attempted, which is how a ``--quick``
run shows (``stream-drift`` runs 4 slices instead of 160, ``train-nyt``
2 epochs instead of 50; ``seeds-20ng`` attempts 12 seed runs at every
size).  CI's ``perfbench-gate`` job::

    python3 perfbench/run.py --workload train-nyt --workload seeds-20ng \
        --workload stream-drift --no-cache --out /tmp/pb
    python benchmarks/check_regression.py --threshold 2.5 \
        --baseline benchmarks/baselines/perfbench_gate.json \
        --current /tmp/pb/results.json

Refreshing a baseline after an intentional perf change::

    python benchmarks/check_regression.py --update-baseline
    python benchmarks/check_regression.py --update-baseline \
        --baseline benchmarks/baselines/BENCH_ops.json --current BENCH_ops.json

Diffing two arbitrary reports (no gate, exit 0 unless inputs are bad) —
handy for local before/after runs::

    python benchmarks/check_regression.py --compare BENCH_before.json BENCH_after.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.suites import declared_totals  # noqa: E402
from repro.io import atomic_write  # noqa: E402
from repro.telemetry import compare_reports, load_report, summarize_report  # noqa: E402
from repro.telemetry.report import HIGHER, Total  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_computational_analysis.json"
DEFAULT_CURRENT = Path("BENCH_computational_analysis.json")
BENCHMARK_SPEC = REPO_ROOT / "BENCHMARK.json"

#: perfbench ``extra`` values gated beside the end-to-end metrics, with
#: their directions (``BENCHMARK.json`` declares none for them).
EXTRA_GATES = {"seeds-20ng/fanout_speedup": HIGHER}


def perfbench_gates() -> tuple[Total, ...]:
    """Every workload's end-to-end metrics in ``BENCHMARK.json``'s
    directions, plus :data:`EXTRA_GATES`, as ``<workload>/<metric>``."""
    spec = json.loads(BENCHMARK_SPEC.read_text(encoding="utf-8"))
    gates = {
        f"{workload['name']}/{metric['name']}": metric["better"]
        for workload in spec["workloads"]
        for metric in spec["end_to_end"]
    }
    return tuple(
        Total(name, better=better) for name, better in {**gates, **EXTRA_GATES}.items()
    )


def perfbench_report(results: dict) -> dict:
    """A perfbench ``results.json`` as a report of ``<workload>/<name>`` totals.

    Every metric and every ``extra`` value becomes a total; the gates
    pick out the ones :func:`perfbench_gates` declares.  ``meta.size``
    holds what a run's numbers scale with.
    """
    meta = results.get("meta", {})
    totals, attempted = {}, {}
    for workload, result in results["workloads"].items():
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        for name, value in {**values, **result.get("extra", {})}.items():
            totals[f"{workload}/{name}"] = value
        attempted[workload] = result["attempted"]
    size = {"seconds": meta.get("seconds"), "trace": meta.get("trace"), "attempted": attempted}
    return {"name": "perfbench", "meta": {**meta, "size": size}, "totals": totals}


def load(path: Path) -> dict:
    """A ``BENCH_*.json`` report, or a perfbench ``results.json`` as one."""
    with path.open("r", encoding="utf-8") as fp:
        data = json.load(fp)
    if "workloads" in data and "schema" not in data:
        return perfbench_report(data)
    return load_report(path)


def scale(report: dict, workloads: set[str]) -> str:
    """What a report's numbers scale with; comparable runs share it.

    A perfbench run's size counts only the ``workloads`` both runs ran.
    """
    meta = report.get("meta", {})
    if "size" not in meta:
        return f"meta.fast={meta.get('fast')}"
    size = meta["size"]
    attempted = {w: n for w, n in sorted(size["attempted"].items()) if w in workloads}
    return f"seconds={size['seconds']} trace={size['trace']} attempted={attempted}"


def compare_mode(path_a: Path, path_b: Path) -> int:
    """Print per-total deltas between two reports; no regression gate.

    Every ``totals`` key present in either report gets a row (A, B,
    delta, ratio); keys missing on one side show as ``-``.  Exit 0
    unless a report cannot be loaded (2).
    """
    for path in (path_a, path_b):
        if not path.exists():
            print(f"error: report {path} does not exist", file=sys.stderr)
            return 2
    try:
        report_a = load(path_a)
        report_b = load(path_b)
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    totals_a = report_a.get("totals", {})
    totals_b = report_b.get("totals", {})
    print(f"compare: A={path_a} ({report_a.get('name')})")
    print(f"         B={path_b} ({report_b.get('name')})")
    header = f"{'metric':<32} {'A':>14} {'B':>14} {'delta':>14} {'ratio':>8}"
    print(header)
    print("-" * len(header))
    for key in sorted(set(totals_a) | set(totals_b)):
        a, b = totals_a.get(key), totals_b.get(key)
        if a is None or b is None:
            a_text = f"{a:.6g}" if a is not None else "-"
            b_text = f"{b:.6g}" if b is not None else "-"
            print(f"{key:<32} {a_text:>14} {b_text:>14} {'-':>14} {'-':>8}")
            continue
        delta = b - a
        ratio = f"{b / a:.3f}x" if a else "inf"
        print(
            f"{key:<32} {a:>14.6g} {b:>14.6g} {delta:>+14.6g} {ratio:>8}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"checked-in baseline report (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=DEFAULT_CURRENT,
        help=f"freshly-emitted report to check (default: {DEFAULT_CURRENT})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="fail when a total is more than this factor slower (default: 2.0)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="copy --current over --baseline instead of comparing",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        type=Path,
        metavar=("A", "B"),
        help=(
            "diff two bench reports (per-total deltas, no pass/fail gate) "
            "instead of guarding --current against --baseline"
        ),
    )
    args = parser.parse_args(argv)

    if args.compare is not None:
        return compare_mode(*args.compare)

    if not args.current.exists():
        print(f"error: current report {args.current} does not exist", file=sys.stderr)
        print("run the smoke benchmarks first (see module docstring)", file=sys.stderr)
        return 2

    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        # Atomic copy: an interrupted update must not leave a truncated
        # baseline that every subsequent CI run would compare against.
        with atomic_write(args.baseline, "w", category="report") as fp:
            fp.write(args.current.read_text(encoding="utf-8"))
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} does not exist", file=sys.stderr)
        return 2

    try:
        baseline = load(args.baseline)
        current = load(args.current)
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    sizes = [report.get("meta", {}).get("size", {}) for report in (baseline, current)]
    workloads = set(sizes[0].get("attempted", {})) & set(sizes[1].get("attempted", {}))
    scales = [scale(report, workloads) for report in (baseline, current)]
    if scales[0] != scales[1]:
        print(
            f"error: baseline {scales[0]} but current {scales[1]}; "
            "compare runs of the same scale",
            file=sys.stderr,
        )
        return 2

    declared = perfbench_gates() if sizes[0] else declared_totals()
    failures, table = compare_reports(
        baseline, current, declared, threshold=args.threshold
    )
    print(table)
    if failures:
        print()
        print(f"PERF REGRESSION ({len(failures)} failing total(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    # On pass, still surface what was measured: a compact per-suite
    # summary of the current report, so the CI log records the numbers
    # the guard accepted (not only the ones it rejected).
    print()
    print(summarize_report(current, declared))
    print()
    print("perf-guard OK: no compared total regressed past the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

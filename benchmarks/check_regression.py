"""CI perf-guard: compare a smoke-run BENCH report against the baseline.

Usage (from the repository root, after a smoke benchmark run emitted
``BENCH_computational_analysis.json`` into the current directory)::

    REPRO_BENCH_FAST=1 python -m pytest benchmarks/bench_computational_analysis.py -q
    python benchmarks/check_regression.py

Exits 0 when every compared total is within ``--threshold`` (default 2x —
deliberately tolerant, shared CI runners are noisy) of the checked-in
baseline, 1 when any total regressed, 2 on bad inputs.  The diff table is
printed either way.  Per-op rows are informational only; the gate runs on
the scalar totals (op/epoch second sums, mean epoch time, docs/sec
throughput).

The guard works on any pair of ``BENCH_*.json`` reports.  CI runs it
four times: on the end-to-end training report (defaults below), on the
fused-kernel microbenchmark, on the sparse fast-path comparison
(``benchmarks/bench_sparse_ops.py``, gating ``sparse_speedup`` /
``sparse_docs_per_sec`` / the leg wall-clocks), and on the multi-seed
parallel-vs-serial wall-clock (``benchmarks/bench_parallel_multiseed.py``),
whose ``multiseed_serial_seconds`` / ``multiseed_parallel_seconds`` /
``multiseed_speedup`` totals this guard gates automatically because they
are listed in :data:`repro.telemetry.report.TIME_TOTALS` /
``RATE_TOTALS``::

    REPRO_BENCH_FAST=1 python -m pytest benchmarks/bench_fused_ops.py -q
    python benchmarks/check_regression.py \
        --baseline benchmarks/baselines/BENCH_ops.json \
        --current BENCH_ops.json

    REPRO_BENCH_FAST=1 REPRO_WORKERS=2 \
        python -m pytest benchmarks/bench_parallel_multiseed.py -q
    python benchmarks/check_regression.py \
        --baseline benchmarks/baselines/BENCH_suite.json \
        --current BENCH_suite.json

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
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.io import atomic_write  # noqa: E402
from repro.telemetry import compare_reports, load_report, summarize_report  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_computational_analysis.json"
DEFAULT_CURRENT = Path("BENCH_computational_analysis.json")


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
        report_a = load_report(path_a)
        report_b = load_report(path_b)
    except ValueError as error:
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
        baseline = load_report(args.baseline)
        current = load_report(args.current)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    failures, table = compare_reports(baseline, current, threshold=args.threshold)
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
    print(summarize_report(current))
    print()
    print("perf-guard OK: no compared total regressed past the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two sets of benchmark runs: ``python -m perfbench.compare A/ B/``.

``A`` holds the parent's runs and ``B`` the change's: every
``results.json`` below each directory is one run (``run.py --out``).
Runs are paired by seed.  For each workload and metric the command
prints both sides' median and quartiles, the change in percent (positive
is better), the pairs won and lost, and the verdict of
:func:`perfbench.stats.classify`.  It exits 1 when an end-to-end metric
is worse beyond its bound, when the change fails more operations, or when
either side has a run whose checks failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from perfbench.run import SPEC
from perfbench.stats import WORSE, classify, quartiles


def load_runs(directory: Path) -> dict:
    """``{workload: {"metrics": {metric: [(seed, value)]}, "failed": n, "bad": n}}``."""
    runs: dict = defaultdict(lambda: {"metrics": defaultdict(list), "failed": 0, "bad": 0})
    for path in sorted(directory.rglob("results.json")):
        report = json.loads(path.read_text())
        seed = report["meta"]["seed"]
        for workload, result in report["workloads"].items():
            entry = runs[workload]
            entry["failed"] += result["failed"]
            entry["bad"] += not result["correct"]
            for name, metric in result["metrics"].items():
                entry["metrics"][name].append((seed, metric["value"]))
    return runs


def compare(parent: dict, change: dict, spec: dict) -> tuple[list[list[str]], bool]:
    """Table rows and whether the change must be refused."""
    metrics = [(m, m["bound"]) for m in spec["end_to_end"]] + [
        (m, None) for m in spec["per_layer"]
    ]
    rows, refuse = [], False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        more_failures = c_runs["failed"] > p_runs["failed"]
        refuse |= more_failures or bool(p_runs["bad"] or c_runs["bad"])
        for metric, bound in metrics:
            p = p_runs["metrics"].get(metric["name"])
            c = c_runs["metrics"].get(metric["name"])
            if not p or not c:
                continue
            verdict = classify(
                [v for _, v in p], [v for _, v in c], metric["better"], bound, _pairs(p, c)
            )
            status = verdict.status
            if status == "better" and more_failures:
                status = "unchanged (more failures)"
            refuse |= bound is not None and status == WORSE
            rows.append(
                [
                    workload,
                    metric["name"],
                    _summary([v for _, v in p]),
                    _summary([v for _, v in c]),
                    f"{verdict.gain * 100:+.1f}%",
                    f"{verdict.wins}/{verdict.losses}/{verdict.pairs}",
                    status,
                ]
            )
    return rows, refuse


def _pairs(parent: list, change: list) -> list[tuple[float, float]]:
    """Runs of both sides with the same seed, matched in run order."""
    by_seed = defaultdict(list)
    for seed, value in change:
        by_seed[seed].append(value)
    pairs = []
    for seed, value in parent:
        if by_seed[seed]:
            pairs.append((value, by_seed[seed].pop(0)))
    return pairs


def _summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    rows, refuse = compare(load_runs(args.parent), load_runs(args.change), spec)
    header = ["workload", "metric", "parent median [Q1, Q3]", "change", "gain", "won/lost/pairs", "verdict"]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if refuse else 0


if __name__ == "__main__":
    sys.exit(main())

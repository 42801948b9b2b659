"""Write a speed claim as a checked-in ``BENCH_*.json`` file.

Usage, from the repository root, after running the parent's and the
change's perfbench runs alternately on the same seeds (``python3
perfbench/run.py --workload train-nyt --seed S --out PARENT/sS``, then
``--out CHANGE/sS``)::

    python benchmarks/perf_claim.py PARENT/ CHANGE/ \\
        --claim train-nyt:work_per_s --out benchmarks/claims/BENCH_<name>.json

Every ``results.json`` below each directory is one run.  For every
end-to-end metric of ``BENCHMARK.json`` on every workload both sides ran,
the file holds both sides' median, Q1 and Q3, the change in percent
(positive is better), the seed-matched pairs won and lost and the
verdict :func:`perfbench.stats.classify` gives — the same numbers
``python -m perfbench.compare`` prints.  It also lists the paired seeds
and each run's ``meta`` (CPU count, BLAS and its thread count, dtype,
host speed), so the claim records the hardware it was measured on.
``--claim`` names the metric the change claims to improve; the script
exits 1 when that metric's verdict is not ``better``, and 2, before it
reads any run, when ``--claim`` is not a ``WORKLOAD:METRIC`` pair of
``BENCHMARK.json``'s workloads and end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.compare import load_runs  # noqa: E402
from perfbench.stats import BETTER, classify, quartiles  # noqa: E402

SCHEMA = "repro.perf_claim/v1"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"


def _pairs(parent: list, change: list) -> list[tuple[int, float, float]]:
    """``(seed, parent, change)`` for runs of the same seed, in run order."""
    by_seed = defaultdict(list)
    for seed, value in change:
        by_seed[seed].append(value)
    return [
        (seed, value, by_seed[seed].pop(0))
        for seed, value in parent
        if by_seed[seed]
    ]


def _side(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def _metas(directory: Path) -> list[dict]:
    metas = [json.loads(path.read_text())["meta"] for path in directory.rglob("results.json")]
    return sorted(metas, key=lambda meta: meta["seed"])


def build_claim(parent_dir: Path, change_dir: Path, spec: dict, claim: str | None = None) -> dict:
    """The claim document for two trees of perfbench runs."""
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    workloads: dict = {}
    seeds: set[int] = set()
    for workload in sorted(set(parent) & set(change)):
        rows = {}
        for metric in spec["end_to_end"]:
            p = parent[workload]["metrics"].get(metric["name"])
            c = change[workload]["metrics"].get(metric["name"])
            if not p or not c:
                continue
            pairs = _pairs(p, c)
            seeds.update(seed for seed, _, _ in pairs)
            verdict = classify(
                [v for _, v in p],
                [v for _, v in c],
                metric["better"],
                metric["bound"],
                [(pv, cv) for _, pv, cv in pairs],
            )
            rows[metric["name"]] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": _side([v for _, v in p]),
                "change": _side([v for _, v in c]),
                "gain_pct": 100.0 * verdict.gain,
                "pairs": verdict.pairs,
                "won": verdict.wins,
                "lost": verdict.losses,
                "verdict": verdict.status,
            }
        workloads[workload] = {
            "failed": {"parent": parent[workload]["failed"], "change": change[workload]["failed"]},
            "bad_runs": {"parent": parent[workload]["bad"], "change": change[workload]["bad"]},
            "metrics": rows,
        }
    document = {
        "schema": SCHEMA,
        "claim": None,
        "seeds": sorted(seeds),
        "workloads": workloads,
        "meta": {"parent": _metas(parent_dir), "change": _metas(change_dir)},
    }
    if claim is not None:
        workload, metric = claim.split(":", 1)
        row = workloads.get(workload, {}).get("metrics", {}).get(metric)
        document["claim"] = {
            "workload": workload,
            "metric": metric,
            "verdict": row["verdict"] if row else "missing",
        }
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="directory of the parent's runs")
    parser.add_argument("change", type=Path, help="directory of the change's runs")
    parser.add_argument("--out", type=Path, required=True, help="claim file to write")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in {w["name"] for w in spec["workloads"]} or metric not in {
            m["name"] for m in spec["end_to_end"]
        }:
            parser.error(
                f"--claim {args.claim!r} is not WORKLOAD:METRIC with a workload "
                "and an end-to-end metric of BENCHMARK.json"
            )
    document = build_claim(args.parent, args.change, spec, args.claim)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    for workload, entry in document["workloads"].items():
        for name, row in entry["metrics"].items():
            print(
                f"{workload:14s} {name:16s} {row['parent']['median']:12.5g} -> "
                f"{row['change']['median']:12.5g}  {row['gain_pct']:+6.1f}%  "
                f"{row['won']}/{row['lost']}/{row['pairs']}  {row['verdict']}"
            )
    claim = document["claim"]
    return 0 if claim is None or claim["verdict"] == BETTER else 1


if __name__ == "__main__":
    sys.exit(main())

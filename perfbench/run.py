"""perfbench: the repository's end-to-end benchmark, one command.

    python3 perfbench/run.py [--workload W ...] [--seed S] [--seconds N]
                             [--trace [0|1]] [--out DIR] [--no-cache] [--quick]

(``python -m perfbench`` is the same command.)  Each workload runs in a
fresh interpreter (:mod:`perfbench.harness`) with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1``: on a small
machine, extra BLAS threads only measure the scheduler.  The command
prints every metric with its unit, writes ``DIR/results.json`` (and, with
``--trace``, ``DIR/trace-<workload>.json``), and ends with one JSON line:
for a single workload exactly ``correct``/``attempted``/``failed``/
``metrics``; for several, the same keys summed, with metrics named
``<workload>/<metric>``.  It exits non-zero if any check fails.

This file uses only the standard library: it must start, and fail
cleanly, even where the ``repro`` package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Longest a workload may take, input generation on a cold cache included.
CHILD_TIMEOUT_S = 900


def run_child(workload: str, args, cache: Path) -> tuple[dict | None, int]:
    """Run one workload in a fresh interpreter; returns (result, exit code)."""
    command = [
        sys.executable, "-m", "perfbench.harness",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(args.out),
        "--cache", str(cache),
    ] + (["--quick"] if args.quick else [])
    path = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        **{var: "1" for var in THREAD_VARS},
        "PYTHONPATH": os.pathsep.join(p for p in path if p),
    }
    # A session of its own, so a timeout also stops the pool workers the
    # workload forked.
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            print(f"perfbench: {workload} timed out", file=sys.stderr)
            return None, 124
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), child.returncode
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: {workload} exited {child.returncode} without a result",
              file=sys.stderr)
        return None, child.returncode or 1


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def print_table(workload: str, result: dict) -> None:
    print(f"\n== {workload}  correct={result['correct']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    rows += [(k, v, "") for k, v in result.get("extra", {}).items()]
    for name, value, unit in rows:
        print(f"  {name:34s} {value:14.6g} {unit}")


def parse(argv=None) -> argparse.Namespace:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--no-cache", action="store_true",
                        help="regenerate every input instead of reusing cached ones")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for smoke tests; numbers are meaningless")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    args.workload = args.workload or names
    args.out = args.out.resolve()
    return args


def main(argv=None) -> int:
    args = parse(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    results, code = {}, 0
    with tempfile.TemporaryDirectory(dir=args.out, prefix="nocache-") as scratch:
        cache = Path(scratch) if args.no_cache else DEFAULT_OUT / "cache"
        for workload in args.workload:
            result, status = run_child(workload, args, cache)
            code = code or status
            if result is None:
                return code
            results[workload] = result
            print_table(workload, result)
    meta = {
        **next(iter(results.values())).get("meta", {}),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
    }
    (args.out / "results.json").write_text(
        json.dumps({"meta": meta, "workloads": results}, indent=2)
    )
    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        line = {k: next(iter(results.values()))[k] for k in keys}
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": value
                for w, r in results.items()
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this process and print its result as JSON.

``perfbench/run.py`` starts this module in a fresh interpreter per
workload, with BLAS pinned to one thread, so set-up time and peak memory
belong to that workload alone.  The last line on stdout is the result;
everything else goes to stderr.

Untraced (``--trace 0``): set up three times (``setup_s`` is the median,
at the reference speed of :mod:`perfbench.pace`), then measure once and
check the outputs; the metrics are the end-to-end ones.  Traced
(``--trace 1``): set up once under tracing, measure once untraced and
once traced, check both; the metrics are the per-layer ones plus
``trace_overhead_pct`` (throughput lost to tracing) and ``rss_growth_mb``
(from the untraced leg, whose memory holds no spans).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from perfbench import layers
from perfbench.inputs import InputCache
from perfbench.pace import Pace, at_reference
from perfbench.run import SPEC, THREAD_VARS
from perfbench.trace import NullTracer, Tracer
from perfbench.workloads import CheckFailed, Outcome, Workload, build, rss_mb
from repro.metrics.cooccurrence import clear_cooccurrence_cache
from repro.metrics.npmi import clear_npmi_cache
from repro.tensor import get_default_dtype, get_sparse_policy, set_default_dtype

SETUP_REPEATS = 3
#: Training runs in float32, the fast configuration the fused kernels target.
DTYPE = "float32"


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    spec = json.loads(SPEC.read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def environment() -> dict:
    """The hardware and software the run measured."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "dtype": str(get_default_dtype()),
        "sparse_policy": dataclasses.asdict(get_sparse_policy()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def cold_start() -> None:
    """Forget the per-process NPMI and co-occurrence memos.

    Both are keyed by corpus content, so without this only the first of
    the repeated set-ups would compute NPMI — and the input build of the
    serving workloads would pre-warm it on a checkout's first run.
    """
    clear_npmi_cache()
    clear_cooccurrence_cache()


def settle() -> None:
    """Collect garbage, then exempt everything alive from later collections.

    Without this, collections during the measured phase rescan the inputs
    and set-up data — tens of milliseconds each, which the serving p99
    picked up as noise.
    """
    gc.collect()
    gc.freeze()


@contextlib.contextmanager
def traced(tracer: Tracer):
    layers.instrument(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


def end_to_end(setup_seconds: list[float], outcome: Outcome) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_seconds),
        "work_per_s": outcome.work_per_s,
        "p50_ms": outcome.latency_ms(50),
        "p99_ms": outcome.latency_ms(99),
        "peak_rss_mb": rss_mb("VmHWM"),
        "topic_npmi": outcome.topic_npmi,
        "topic_diversity": outcome.topic_diversity,
    }


def run_untraced(workload: Workload, inputs, pace: Pace) -> tuple[dict, Outcome]:
    seconds, speeds, state = [], [pace.speed()], None
    for _ in range(SETUP_REPEATS):
        state = None
        cold_start()
        start = time.perf_counter()
        state = workload.setup(inputs, NullTracer())
        seconds.append(time.perf_counter() - start)
        speeds.append(pace.speed())
    settle()
    outcome = workload.measure(state, NullTracer(), pace)
    workload.check(state, outcome)
    return end_to_end(list(at_reference(seconds, speeds)), outcome), outcome


def run_traced(workload: Workload, inputs, pace: Pace, trace_path: Path) -> tuple[dict, Outcome]:
    tracer = Tracer()
    cold_start()
    with traced(tracer):
        state = workload.setup(inputs, tracer)
    settle()
    plain = workload.measure(state, NullTracer(), pace)
    workload.check(state, plain)
    settle()
    with traced(tracer):
        outcome = workload.measure(state, tracer, pace)
    workload.check(state, outcome)
    metrics = {
        **layers.layer_metrics(tracer.spans),
        **workload.layers(state, outcome, tracer),
        "trace_overhead_pct": (plain.work_per_s / outcome.work_per_s - 1.0) * 100.0,
        "rss_growth_mb": plain.rss_growth_mb,
    }
    tracer.export(trace_path)
    if tracer.missing:
        print(f"perfbench: not traced (missing): {tracer.missing}", file=sys.stderr)
    return metrics, outcome


def run(args) -> dict:
    set_default_dtype(DTYPE)
    workload = build(args.workload, args.seconds, quick=args.quick)
    inputs = workload.inputs(args.seed, InputCache(args.cache))
    pace = Pace()
    pace.speed()  # every run reports at least one speed sample
    if args.trace:
        metrics, outcome = run_traced(
            workload, inputs, pace, args.out / f"trace-{workload.name}.json"
        )
    else:
        metrics, outcome = run_untraced(workload, inputs, pace)
    metrics = layers.finite(metrics)
    wanted = declared_metrics()[1 if args.trace else 0]
    unknown = set(metrics) - set(wanted)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in wanted.items()
        },
        "extra": {
            "rss_growth_mb": outcome.rss_growth_mb,
            "failed_frac": outcome.failed / outcome.attempted,
            "ops": sum(len(w) for w in outcome.latencies),
            "cpu_speed": statistics.median(pace.samples),
            **outcome.extra,
        },
        "meta": environment(),
    }


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args)
    except CheckFailed as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "error": str(exc)}
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

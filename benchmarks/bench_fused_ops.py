"""Fused-kernel microbenchmark: the per-op half of the CI perf guard.

Runs the ``ops`` suite of :mod:`repro.experiments.suites` — forward and
backward of every kernel in ``PROFILED_FUSED_OPS`` on fixed seeded
shapes, checked to have run at least ``repeats`` times each — and emits
``BENCH_ops.json``, which ``benchmarks/check_regression.py`` compares
against the checked-in baseline.  Unlike the end-to-end training
benchmarks, this isolates each kernel, so a regression points at the
offending op directly.
"""

from benchmarks.conftest import BENCH_DTYPE, FAST
from repro.experiments.suites import SuiteSettings
from repro.telemetry.microbench import DEFAULT_REPEATS


def test_fused_ops_microbench(benchmark, run_suite):
    settings = SuiteSettings(repeats=5 if FAST else DEFAULT_REPEATS, dtype=BENCH_DTYPE)
    benchmark.pedantic(run_suite, args=("ops", settings), rounds=1, iterations=1)

"""Sparse fast-path benchmark: the dense-vs-CSR half of the CI perf guard.

Runs the ``sparse`` suite of :mod:`repro.experiments.suites` — the
training hot path forward+backward on the same synthetic ≥99%-sparse
bow, once dense (the reference oracle) and once through the CSR fused
kernels, with the dense-vs-sparse loss gap and the profile density
checked — and emits ``BENCH_sparse.json``, which
``benchmarks/check_regression.py`` compares against the checked-in
baseline.  The gated totals are the CSR leg's wall-clock, the
``sparse_speedup`` ratio, and the fast-path docs/sec.

In STRICT mode the speedup itself is asserted to be an integer multiple
(≥2×): the fast path earning anything less on the ≥99%-sparse profile it
was built for is a regression, baseline or not.
"""

from benchmarks.conftest import BENCH_DTYPE, FAST, STRICT
from repro.experiments.suites import SuiteSettings
from repro.telemetry.microbench import DEFAULT_SPARSE_REPEATS

#: STRICT-mode floor for the fast path: an integer-multiple speedup.
MIN_SPEEDUP_STRICT = 2.0


def test_sparse_fast_path_bench(benchmark, run_suite):
    settings = SuiteSettings(
        repeats=3 if FAST else DEFAULT_SPARSE_REPEATS, dtype=BENCH_DTYPE
    )
    report = benchmark.pedantic(
        run_suite, args=("sparse", settings), rounds=1, iterations=1
    )
    speedup = report["totals"]["sparse_speedup"]
    if STRICT:
        assert speedup >= MIN_SPEEDUP_STRICT, (
            f"sparse fast path must be an integer multiple faster on the "
            f"≥99%-sparse profile, got {speedup:.2f}x"
        )
    else:
        # Smoke scale: still require the fast path to actually be faster.
        assert speedup > 1.0, f"sparse path slower than dense ({speedup:.2f}x)"

"""Multi-seed evaluation wall-clock: serial vs process-parallel.

The §V.F protocol (several seeds per reported metric) is the repo's
biggest embarrassingly-parallel loop.  This benchmark runs the
``multiseed`` suite of :mod:`repro.experiments.suites`: the *same*
5-seed ContraTopic evaluation twice — ``workers=1`` (the exact serial
path) and ``workers=N`` over :class:`repro.parallel.ParallelMap` — with
the suite's check that the merged metrics, per-seed statuses and stds
are *identical* (the fan-out must be a pure wall-clock optimisation).
On an adequately-parallel machine (>= 4 cores, strict mode) it asserts
that the parallel run is at least 2x faster.

Both wall-clocks (and their ratio) land in the report totals as
``multiseed_serial_seconds`` / ``multiseed_parallel_seconds`` /
``multiseed_speedup`` of ``BENCH_multiseed.json``; the session's
``BENCH_suite.json`` carries them too, and
``benchmarks/check_regression.py`` gates it against the checked-in
baseline.
"""

from __future__ import annotations

import os

from benchmarks.conftest import BENCH_DTYPE, STRICT
from repro.experiments.suites import SuiteSettings

#: Acceptance target on a 4-core runner; only asserted when the machine
#: can physically deliver it (and in strict mode — under fast/smoke
#: scale the per-seed work is too small to beat the fork overhead).
SPEEDUP_TARGET = 2.0


def test_multiseed_parallel_matches_serial_and_wins_wall_clock(
    settings_20ng, run_suite
):
    settings = SuiteSettings(
        experiment=settings_20ng, num_seeds=5, dtype=BENCH_DTYPE
    )
    report = run_suite("multiseed", settings)
    workers = report["meta"]["workers"]
    speedup = report["totals"]["multiseed_speedup"]
    if STRICT and workers >= 4 and (os.cpu_count() or 1) >= 4:
        assert speedup >= SPEEDUP_TARGET, (
            f"{workers}-worker run only {speedup:.2f}x faster than serial "
            f"(target {SPEEDUP_TARGET}x on {os.cpu_count()} cores)"
        )

"""Shared configuration for the benchmark suite.

Every benchmark reproduces one table or figure of the paper at the default
experiment scale (see ``repro.experiments.context.ExperimentSettings``) and
prints the paper-style rows/series so the run log doubles as the
reproduction record.

Environment variables
---------------------
``REPRO_BENCH_FAST``
    ``1`` / ``true`` / ``yes`` / ``on`` (any case) switch to the
    smoke-test scale: every workload still runs and checks structural
    invariants, but the paper-shape assertions (which only hold for
    adequately-trained models) are skipped.  ``0`` / ``false`` / ``no`` /
    ``off``, the empty string, or unset keep the full, strict scale.
    Anything else is an error — a typo must not silently pick a mode.
``REPRO_BENCH_TELEMETRY_DIR``
    Directory the ``BENCH_*.json`` telemetry reports are written to
    (default: the current working directory).
``REPRO_BENCH_DTYPE``
    Precision the perf-measurement benchmarks *train* in (default
    ``float32`` — the fused hot path's intended fast configuration).
    Metrics/NPMI computations stay float64 regardless.

Telemetry
---------
Every benchmark test is timed into a session-wide
:class:`repro.telemetry.MetricsRegistry` under ``bench/<test name>``
(autouse fixture); individual benchmarks add finer-grained stage timers
via the ``bench_registry`` fixture.  At session end the aggregate is
written to ``BENCH_suite.json``; benchmarks with richer telemetry (op
tables, epoch tables) emit their own report through :func:`emit_report`,
and the perf-guard suites run their one definition in
:mod:`repro.experiments.suites` through the ``run_suite`` fixture.

Because :func:`repro.telemetry.profile_ops` blocks nest, op-profiled
benchmark sections also fan their per-op rows into the session registry
via :func:`profile_into_suite`, so ``BENCH_suite.json`` carries a
populated ``ops`` table without profiling (and thereby distorting) the
unprofiled headline timings.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentSettings
from repro.experiments.suites import SUITES, SuiteSettings, declared_totals
from repro.telemetry import (
    MetricsRegistry,
    build_report,
    format_report,
    profile_ops,
    write_report,
)
from repro.tensor import resolve_dtype

_TRUE_VALUES = {"1", "true", "yes", "on"}
_FALSE_VALUES = {"", "0", "false", "no", "off"}


def parse_env_flag(name: str, default: bool = False) -> bool:
    """Parse a boolean environment variable predictably.

    Unlike raw truthiness of the env string (under which ``"0"`` was
    previously *truthy*), this accepts exactly the documented spellings.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _TRUE_VALUES:
        return True
    if value in _FALSE_VALUES:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a valid flag; use one of "
        f"{sorted(_TRUE_VALUES)} or {sorted(_FALSE_VALUES)}"
    )


#: True when REPRO_BENCH_FAST selects the smoke-test scale.
FAST = parse_env_flag("REPRO_BENCH_FAST")

#: False when in fast mode — the smoke run still executes every workload
#: and checks structural invariants, but skips the paper-shape assertions,
#: which only hold for adequately-trained models.
STRICT = not FAST

#: Training precision of the perf-measurement benchmarks (validated so a
#: typo in REPRO_BENCH_DTYPE fails loudly instead of silently changing
#: what the numbers mean).
BENCH_DTYPE = str(resolve_dtype(os.environ.get("REPRO_BENCH_DTYPE", "float32")))


def telemetry_dir() -> Path:
    """Directory BENCH_*.json reports are written to."""
    return Path(os.environ.get("REPRO_BENCH_TELEMETRY_DIR", "."))


def emit_report(name: str, registry=None, epochs=None, meta=None, declared=()) -> Path:
    """Write ``BENCH_<name>.json`` into :func:`telemetry_dir`."""
    merged_meta = {"fast": FAST, **(meta or {})}
    report = build_report(
        name, registry=registry, epochs=epochs, meta=merged_meta, declared=declared
    )
    return write_report(report, telemetry_dir() / f"BENCH_{name}.json")


@pytest.fixture(scope="session")
def bench_registry():
    """Session-wide telemetry sink; dumped to BENCH_suite.json at exit."""
    registry = MetricsRegistry()
    yield registry
    emit_report("suite", registry=registry, declared=declared_totals())


@pytest.fixture(scope="session")
def run_suite(bench_registry):
    """Run one :data:`repro.experiments.suites.SUITES` entry.

    ``run_suite(name, settings)`` runs the suite (its correctness checks
    raise), writes ``BENCH_<name>.json``, folds the suite's registry into
    the session's and returns the report.
    """

    def run(name: str, settings: SuiteSettings) -> dict:
        suite = SUITES[name]
        report = suite.report(settings, meta={"fast": FAST})
        write_report(report, telemetry_dir() / f"BENCH_{name}.json")
        bench_registry.merge_snapshot(report["registry"])
        if suite.describe is not None:
            print_block(suite.describe(report["meta"]))
        print_block(format_report(report))
        return report

    return run


@pytest.fixture(autouse=True)
def _time_each_benchmark(request, bench_registry):
    """Record every test's wall time under ``bench/<test name>``."""
    with bench_registry.timer(f"bench/{request.node.name}"):
        yield


@pytest.fixture(scope="session")
def profile_into_suite(bench_registry):
    """Op-profile a block into a local registry *and* the suite registry.

    ``with profile_into_suite(registry): ...`` — both registries receive
    the ``op/*`` rows (nested :func:`profile_ops` blocks), which is what
    populates the ``ops`` table of ``BENCH_suite.json``.
    """

    @contextlib.contextmanager
    def profile(registry: MetricsRegistry):
        with profile_ops(bench_registry), profile_ops(registry):
            yield registry

    return profile


def _base(dataset: str) -> ExperimentSettings:
    settings = ExperimentSettings(dataset=dataset)
    if not STRICT:
        settings = settings.fast()
    return settings


@pytest.fixture(scope="session")
def settings_20ng() -> ExperimentSettings:
    return _base("20ng")


@pytest.fixture(scope="session")
def settings_yahoo() -> ExperimentSettings:
    return _base("yahoo")


@pytest.fixture(scope="session")
def settings_nytimes() -> ExperimentSettings:
    return _base("nytimes")


def print_block(text: str) -> None:
    """Print a result block, clearly delimited in benchmark output."""
    print()
    print(text)
    print()

"""Run every experiment end to end and print all paper artefacts.

``python -m repro.experiments.runner [--fast] [--workers N]`` reproduces
Table I, Figure 2, Figure 3, Table II, Figures 4-6 and Tables III-VI in
one go, printing each in paper-style text form.  The benchmark suite runs
the same functions one artefact at a time.

The sections are independent of each other (each builds its own corpus
and models), so they fan out over :class:`repro.parallel.ParallelMap`:
each task returns its fully-formatted text block and the parent prints
the blocks in the fixed section order, so the output is identical for
every worker count.  A section that raises is reported in place as a
recorded failure instead of aborting the rest of the run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.experiments.context import ExperimentSettings
from repro.experiments.fig2_interpretability import format_fig2, run_fig2
from repro.experiments.fig3_clustering import format_fig3, run_fig3
from repro.experiments.fig45_sensitivity import (
    format_sensitivity,
    run_lambda_sensitivity,
    run_v_sensitivity,
)
from repro.experiments.fig6_backbone import format_fig6, run_fig6
from repro.experiments.table1_stats import format_table1, run_table1
from repro.experiments.table2_ablation import format_table2, run_table2
from repro.experiments.table3_intrusion import format_table3, run_table3
from repro.experiments.tables456_casestudy import format_casestudy, run_casestudy


def build_sections(
    fast: bool = False, run_spec=None
) -> list[tuple[str, Callable[[], str]]]:
    """The full artefact list as independent ``(title, thunk)`` tasks.

    Each thunk computes and formats one paper artefact and returns the
    text block; nothing is shared between thunks, which is what makes the
    fan-out in :func:`run_all` safe.  ``run_spec`` (a
    :class:`~repro.training.trainer.RunSpec`) is the declarative training
    configuration every section's fits run under — e.g.
    ``RunSpec(guard=GuardPolicy())`` puts the whole reproduction pass
    behind the resilience guard.
    """

    def settings(dataset: str) -> ExperimentSettings:
        s = ExperimentSettings(dataset=dataset, run_spec=run_spec)
        return s.fast() if fast else s

    sections: list[tuple[str, Callable[[], str]]] = [
        ("Table I", lambda: format_table1(run_table1(scale=settings("20ng").scale)))
    ]

    for dataset in ("20ng", "yahoo", "nytimes"):
        sections.append(
            (
                f"Figure 2 — {dataset}",
                lambda d=dataset: format_fig2(run_fig2(settings(d))),
            )
        )

    for dataset in ("20ng", "yahoo"):
        sections.append(
            (
                f"Figure 3 — {dataset}",
                lambda d=dataset: format_fig3(run_fig3(settings(d))),
            )
        )

    sections.append(
        (
            "Table II — ablation (20NG)",
            lambda: format_table2(run_table2(settings("20ng"))),
        )
    )

    for dataset in ("20ng", "yahoo", "nytimes"):
        fig = "5" if dataset == "nytimes" else "4"
        sections.append(
            (
                f"Figure {fig} — sensitivity on {dataset}",
                lambda d=dataset: "\n".join(
                    [
                        format_sensitivity(run_lambda_sensitivity(settings(d))),
                        "",
                        format_sensitivity(run_v_sensitivity(settings(d))),
                    ]
                ),
            )
        )

    for dataset in ("20ng", "yahoo"):
        sections.append(
            (
                f"Figure 6 — backbone substitution on {dataset}",
                lambda d=dataset: format_fig6(run_fig6(settings(d)), d),
            )
        )

    sections.append(
        (
            "Table III — word intrusion (20NG)",
            lambda: format_table3(run_table3(settings("20ng"))),
        )
    )

    for dataset in ("20ng", "yahoo", "nytimes"):
        sections.append(
            (
                f"Case study — {dataset}",
                lambda d=dataset: format_casestudy(run_casestudy(settings(d)), d),
            )
        )

    return sections


def run_all(
    fast: bool = False,
    out=sys.stdout,
    workers: int | None = 1,
    registry=None,
    run_spec=None,
) -> None:
    """Execute every experiment; ``fast`` shrinks corpora and epochs.

    ``workers=1`` (the default) runs the sections in-process in order —
    the exact serial path.  Higher counts fan the sections out across
    processes; the printed output is identical because each section's
    text is computed independently and printed in the fixed order.
    ``run_spec`` forwards to :func:`build_sections` (it is plain data, so
    it pickles across the fan-out).
    """
    from repro.parallel import ParallelMap, require_any_success

    sections = build_sections(fast=fast, run_spec=run_spec)

    start = time.time()
    outcomes = ParallelMap(workers=workers, registry=registry).map(
        lambda section: section[1](), sections
    )
    require_any_success(outcomes, "experiment-section")
    for (title, _), outcome in zip(sections, outcomes):
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}", file=out)
        if outcome.ok:
            print(outcome.value, file=out)
        else:
            print(f"SECTION FAILED: {outcome.error}", file=out)

    print(f"\nAll experiments finished in {time.time() - start:.1f}s", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="smaller corpora / fewer epochs"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the section fan-out "
        "(default: REPRO_WORKERS or the CPU count; 1 = serial)",
    )
    parser.add_argument(
        "--guard",
        action="store_true",
        help="train every section under the resilience guard "
        "(skip/backoff/restore/degrade escalation)",
    )
    args = parser.parse_args(argv)
    run_spec = None
    if args.guard:
        from repro.training.resilience import GuardPolicy
        from repro.training.trainer import RunSpec

        run_spec = RunSpec(guard=GuardPolicy())
    run_all(fast=args.fast, workers=args.workers, run_spec=run_spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

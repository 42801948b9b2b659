"""Summaries and verdicts for comparing two sets of benchmark runs.

The rules are the repository's rules for performance claims:

* a metric is **worse** when the change's median is worse than the
  parent's by more than the metric's bound (a share of the parent
  median, from ``BENCHMARK.json``);
* it is **better** only when the change wins at least nine tenths of the
  seed-matched pairs (ties count for neither side) *and* the medians
  differ by more than the parent's own interquartile range;
* it is **unresolved** when the runs spread wider than the bound and the
  change's runs do not all beat all of the parent's;
* otherwise it is **unchanged**.

Per-layer metrics have no bound: they are only ever better, worse (the
gain rule mirrored) or unchanged.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

BETTER, WORSE, UNCHANGED, UNRESOLVED = "better", "worse", "unchanged", "unresolved"
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


@dataclass(frozen=True)
class Verdict:
    status: str
    #: Change median relative to the parent median, signed so that a
    #: positive number is an improvement.
    gain: float
    wins: int
    losses: int
    pairs: int


def _wins_gap(parent, change, pairs, sign) -> tuple[int, int, float, float]:
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    p1, p_med, p3 = quartiles(parent)
    gap = quartiles(change)[1] - p_med
    return wins, losses, gap, p3 - p1


def classify(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float | None,
    pairs: Sequence[tuple[float, float]],
) -> Verdict:
    """Verdict on one (workload, metric) from both sides' runs.

    ``pairs`` are ``(parent, change)`` values of runs with the same seed.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins, losses, gap, parent_iqr = _wins_gap(parent, change, pairs, sign)
    p_med = quartiles(parent)[1]
    gain = sign * gap / abs(p_med) if p_med else 0.0
    decisive = bool(pairs) and abs(gap) > parent_iqr

    def verdict(status: str) -> Verdict:
        return Verdict(status, gain, wins, losses, len(pairs))

    if bound is not None and gain < -bound:
        return verdict(WORSE)
    if decisive and gain > 0 and wins >= WIN_SHARE * len(pairs):
        return verdict(BETTER)
    if bound is None:
        if decisive and gain < 0 and losses >= WIN_SHARE * len(pairs):
            return verdict(WORSE)
        return verdict(UNCHANGED)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return verdict(UNRESOLVED)
    return verdict(UNCHANGED)

import json
import statistics

import pytest

from perfbench import compare
from perfbench.stats import BETTER, UNCHANGED, UNRESOLVED, WORSE, classify, quartiles, spread

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def paired(parent, change):
    return list(zip(parent, change))


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert spread([10.0, 10.0, 10.0]) == 0.0


def test_clear_gain_is_better():
    change = [p * 1.08 for p in PARENT]
    verdict = classify(PARENT, change, "higher", 0.1, paired(PARENT, change))
    assert verdict.status == BETTER
    assert verdict.wins == 10 and verdict.gain == pytest.approx(0.08, rel=1e-3)


def test_gain_needs_nine_of_ten_pairs():
    change = [p * 1.08 for p in PARENT]
    change[0] = change[1] = 90.0  # two pairs lost: 8/10 wins
    assert classify(PARENT, change, "higher", 0.1, paired(PARENT, change)).status == UNCHANGED


def test_gain_needs_gap_wider_than_parent_iqr():
    noisy = [90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 97.0, 103.0, 94.0, 106.0]
    change = [p + 2.0 for p in noisy]  # wins every pair, gap 2 < IQR ~13
    verdict = classify(noisy, change, "higher", 0.25, paired(noisy, change))
    assert verdict.wins == 10 and verdict.status == UNCHANGED


def test_lower_is_better_direction():
    change = [p * 0.9 for p in PARENT]
    assert classify(PARENT, change, "lower", 0.1, paired(PARENT, change)).status == BETTER
    slower = [p * 1.2 for p in PARENT]
    verdict = classify(PARENT, slower, "lower", 0.1, paired(PARENT, slower))
    assert verdict.status == WORSE and verdict.gain == pytest.approx(-0.2, rel=1e-3)


def test_regression_within_bound_is_unchanged_beyond_is_worse():
    small = [p * 0.95 for p in PARENT]
    assert classify(PARENT, small, "higher", 0.1, paired(PARENT, small)).status == UNCHANGED
    large = [p * 0.85 for p in PARENT]
    assert classify(PARENT, large, "higher", 0.1, paired(PARENT, large)).status == WORSE


def test_spread_wider_than_bound_is_unresolved_unless_all_runs_better():
    wide = [70.0, 130.0, 80.0, 120.0, 75.0, 125.0, 85.0, 115.0, 90.0, 110.0]
    same = list(reversed(wide))
    assert classify(wide, same, "higher", 0.1, paired(wide, same)).status == UNRESOLVED
    far = [200.0 + p for p in wide]
    assert classify(wide, far, "higher", 0.1, paired(wide, far)).status == BETTER


def test_per_layer_metric_without_bound_uses_mirrored_gain_rule():
    slower = [p * 1.3 for p in PARENT]
    assert classify(PARENT, slower, "lower", None, paired(PARENT, slower)).status == WORSE
    assert classify(PARENT, PARENT, "lower", None, paired(PARENT, PARENT)).status == UNCHANGED


def write_runs(directory, values, failed=0):
    for seed, value in enumerate(values):
        run = directory / f"seed{seed}"
        run.mkdir(parents=True)
        report = {
            "meta": {"seed": seed},
            "workloads": {
                "w": {
                    "correct": True,
                    "attempted": 10,
                    "failed": failed,
                    "metrics": {"work_per_s": {"value": value, "unit": "1/s"}},
                }
            },
        }
        (run / "results.json").write_text(json.dumps(report))


SPEC = {
    "end_to_end": [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
    "per_layer": [],
}


def test_compare_pairs_runs_by_seed_and_refuses_a_regression(tmp_path, capsys):
    write_runs(tmp_path / "a", PARENT)
    write_runs(tmp_path / "b", [p * 1.1 for p in PARENT])
    write_runs(tmp_path / "c", [p * 0.8 for p in PARENT])
    parent = compare.load_runs(tmp_path / "a")
    rows, refuse = compare.compare(parent, compare.load_runs(tmp_path / "b"), SPEC)
    assert rows[0][-2:] == ["10/0/10", BETTER] and not refuse
    rows, refuse = compare.compare(parent, compare.load_runs(tmp_path / "c"), SPEC)
    assert rows[0][-1] == WORSE and refuse


def test_compare_refuses_a_gain_with_more_failures(tmp_path):
    write_runs(tmp_path / "a", PARENT)
    write_runs(tmp_path / "b", [p * 1.1 for p in PARENT], failed=1)
    rows, refuse = compare.compare(
        compare.load_runs(tmp_path / "a"), compare.load_runs(tmp_path / "b"), SPEC
    )
    assert rows[0][-1].startswith(UNCHANGED) and refuse

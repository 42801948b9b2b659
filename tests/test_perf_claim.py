"""benchmarks/perf_claim.py on two synthetic trees of perfbench runs."""

import json

import pytest

from benchmarks import perf_claim

SEEDS = list(range(1, 11))


def _write_runs(root, work_per_s, p50_ms, failed=0):
    for seed, rate, latency in zip(SEEDS, work_per_s, p50_ms):
        run = root / f"s{seed}"
        run.mkdir(parents=True)
        report = {
            "meta": {"seed": seed, "nproc": 2, "blas": "scipy-openblas", "blas_threads": 1},
            "workloads": {
                "train-nyt": {
                    "failed": failed,
                    "correct": True,
                    "metrics": {
                        "work_per_s": {"value": rate},
                        "p50_ms": {"value": latency},
                        "objectives.elbo_s": {"value": 1.0},
                    },
                },
            },
        }
        (run / "results.json").write_text(json.dumps(report))


@pytest.fixture
def trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # The change is 10% faster on nine seeds and slower on the last one;
    # its latency is unchanged.
    _write_runs(parent, [100.0 + s for s in SEEDS], [10.0] * 10)
    _write_runs(change, [110.0 + s for s in SEEDS[:9]] + [90.0], [10.0] * 10)
    return parent, change


def test_medians_quartiles_pairs_and_seeds(trees):
    parent, change = trees
    spec = json.loads(perf_claim.SPEC_PATH.read_text())
    document = perf_claim.build_claim(parent, change, spec, "train-nyt:work_per_s")

    assert document["schema"] == perf_claim.SCHEMA
    assert document["seeds"] == SEEDS
    rows = document["workloads"]["train-nyt"]["metrics"]
    # End-to-end metrics only, and only those both sides measured.
    assert set(rows) == {"work_per_s", "p50_ms"}
    rate = rows["work_per_s"]
    assert rate["parent"] == {"median": 105.5, "q1": 102.75, "q3": 108.25, "runs": 10}
    assert rate["change"]["median"] == 114.5
    assert (rate["won"], rate["lost"], rate["pairs"]) == (9, 1, 10)
    assert rate["gain_pct"] == pytest.approx(100 * 9.0 / 105.5)
    assert rate["verdict"] == "better"
    assert rate["bound"] == 0.15 and rate["better"] == "higher"
    assert rows["p50_ms"]["verdict"] == "unchanged"
    assert document["claim"] == {
        "workload": "train-nyt", "metric": "work_per_s", "verdict": "better",
    }
    assert [m["seed"] for m in document["meta"]["parent"]] == SEEDS
    assert all(m["blas_threads"] == 1 for m in document["meta"]["change"])


def test_cli_writes_the_file_and_exits_on_the_claim(trees, tmp_path):
    parent, change = trees
    out = tmp_path / "claims" / "BENCH_claim.json"
    args = [str(parent), str(change), "--out", str(out)]
    assert perf_claim.main([*args, "--claim", "train-nyt:work_per_s"]) == 0
    assert json.loads(out.read_text())["claim"]["verdict"] == "better"
    assert perf_claim.main([*args, "--claim", "train-nyt:p50_ms"]) == 1
    assert perf_claim.main([*args, "--claim", "serve-steady:p99_ms"]) == 1
    assert json.loads(out.read_text())["claim"]["verdict"] == "missing"
    assert perf_claim.main(args) == 0
    assert json.loads(out.read_text())["claim"] is None


def test_failed_operations_are_recorded(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_runs(parent, [100.0] * 10, [10.0] * 10)
    _write_runs(change, [100.0] * 10, [10.0] * 10, failed=1)
    spec = json.loads(perf_claim.SPEC_PATH.read_text())
    entry = perf_claim.build_claim(parent, change, spec)["workloads"]["train-nyt"]
    assert entry["failed"] == {"parent": 0, "change": 10}
    assert entry["bad_runs"] == {"parent": 0, "change": 0}


@pytest.mark.parametrize(
    "claim", ["train-nyt", "train:work_per_s", "train-nyt:objectives.elbo_s", ""]
)
def test_a_malformed_claim_exits_two_before_reading_runs(tmp_path, capsys, claim):
    out = tmp_path / "BENCH_claim.json"
    missing = [str(tmp_path / "no-parent"), str(tmp_path / "no-change")]
    with pytest.raises(SystemExit) as exit_info:
        perf_claim.main([*missing, "--out", str(out), "--claim", claim])
    assert exit_info.value.code == 2
    assert "WORKLOAD:METRIC" in capsys.readouterr().err
    assert not out.exists()


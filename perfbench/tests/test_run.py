"""The one command, end to end, at quick sizes."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def names(section):
    return [m["name"] for m in SPEC[section]]


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every)) and all(NAME.match(n) for n in every)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(bounds.values())


def test_one_workload_prints_the_contract_line_and_results(tmp_path):
    done = run("--workload", "serve-reload", "--seed", "3", "--quick", "--no-cache",
               "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values() if m["unit"] != "npmi")
    results = json.loads((tmp_path / "results.json").read_text())
    meta = results["meta"]
    assert meta["seed"] == 3 and meta["dtype"] == "float32"
    assert set(meta["thread_env"].values()) == {"1"}
    assert {"nproc", "affinity", "blas", "numpy", "scipy", "python", "wall_s"} <= set(meta)
    assert not list(tmp_path.glob("nocache-*")), "the --no-cache inputs were left behind"


def test_trace_prints_every_layer_metric_and_writes_spans(tmp_path):
    done = run("--trace", "--quick", "--no-cache", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"]
    for workload in names("workloads"):
        got = [k.split("/", 1)[1] for k in line["metrics"] if k.startswith(workload + "/")]
        assert got == names("per_layer")
        spans = json.loads((tmp_path / f"trace-{workload}.json").read_text())["spans"]
        assert spans and {"name", "start", "end", "parent", "trace"} <= set(spans[0])
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["train-nyt/training.batches"] > 0 and metrics["train-nyt/nn.adam_s"] > 0
    assert metrics["serve-steady/serving.batches"] > 0
    assert metrics["serve-steady/serving.batch_mismatches"] == 0
    assert metrics["serve-reload/serving.reloads"] > 0
    assert metrics["seeds-20ng/parallel.map_s"] > 0 and metrics["seeds-20ng/parallel.speedup"] > 0
    assert metrics["stream-drift/metrics.stream_update_s"] > 0


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = run("--workload", "train-nyt", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, env=env)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

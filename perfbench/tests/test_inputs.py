import numpy as np

from perfbench.inputs import InputCache, text_pool
from perfbench.workloads import build
from repro.tensor import default_dtype

THEMES = ("space", "medicine", "finance")


def test_cached_and_fresh_pools_are_identical(tmp_path):
    cache = InputCache(tmp_path / "a")
    built = text_pool(cache, THEMES, 25, 20.0, seed=3)
    cached = text_pool(cache, THEMES, 25, 20.0, seed=3)
    fresh = text_pool(InputCache(tmp_path / "b"), THEMES, 25, 20.0, seed=3)
    assert built == cached == fresh
    assert len(built[0]) == 25
    assert len(list((tmp_path / "a").iterdir())) == 1
    text_pool(cache, THEMES, 25, 20.0, seed=4)
    assert len(list((tmp_path / "a").iterdir())) == 2


def test_seed_picks_the_documents(tmp_path):
    cache = InputCache(tmp_path)
    workload = build("train-nyt", 1.0, quick=True)
    assert workload.inputs(1, cache) == workload.inputs(1, cache)
    assert workload.inputs(1, cache) != workload.inputs(2, cache)


def test_cached_and_fresh_serving_inputs_are_identical(tmp_path):
    workload = build("serve-reload", 1.0, quick=True)
    with default_dtype("float32"):
        fresh = workload.inputs(5, InputCache(tmp_path / "a"))
        cached = workload.inputs(5, InputCache(tmp_path / "a"))
        other = workload.inputs(5, InputCache(tmp_path / "b"))
    for inputs in (cached, other):
        for segment, fresh_segment in zip(inputs.open, fresh.open, strict=True):
            assert np.array_equal(segment.due, fresh_segment.due)
        for chunk, fresh_chunk in zip(inputs.closed, fresh.closed, strict=True):
            for a, b in zip(chunk, fresh_chunk, strict=True):
                assert a.kind == b.kind and np.array_equal(a.payload, b.payload)
        assert np.array_equal(
            np.load(inputs.directory / "embeddings.npy"), np.load(fresh.directory / "embeddings.npy")
        )
        for name in ("ckpt-0.npz", "ckpt-3.npz", "reference.npz"):
            with np.load(inputs.directory / name) as x, np.load(fresh.directory / name) as y:
                assert x.files == y.files
                assert all(np.array_equal(x[k], y[k]) for k in x.files)

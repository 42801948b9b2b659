"""The first-layer transpose cache can never serve stale weights.

``Linear.infer`` multiplies a CSR batch by a C-contiguous ``W^T`` cached
against the ``weight.data`` array it was copied from.  Every optimizer
step and every ``load_state_dict`` rebinds ``weight.data``, so each test
changes the weights between two transforms of one model object and
checks θ bitwise against a freshly built copy that never had a cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.corpus import Corpus
from repro.io import load_checkpoint, save_checkpoint
from repro.models import ETM, NTMConfig
from repro.serving import ModelRegistry
from repro.training.callbacks import Callback
from repro.tensor.dtypes import sparse_policy

CONFIG = NTMConfig(num_topics=6, hidden_sizes=(16,), epochs=3, batch_size=32, seed=4)


@pytest.fixture(scope="module")
def probe(tiny_corpus):
    return Corpus(tiny_corpus.documents[:40], tiny_corpus.vocabulary)


@pytest.fixture()
def factory(tiny_corpus, tiny_embeddings):
    return lambda: ETM(tiny_corpus.vocab_size, CONFIG, tiny_embeddings.vectors)


def fresh_theta(factory, state, corpus) -> np.ndarray:
    """θ from a new model that has never transformed before."""
    model = factory()
    model.load_state_dict(state)
    model._fitted = True
    return model.transform(corpus)


def first_layer(model):
    return model.encoder.trunk.body.layer0


@pytest.fixture()
def checkpoints(factory, tiny_corpus, tmp_path):
    """Two checkpoints of the same architecture with different weights."""
    paths = []
    for seed in (0, 1):
        model = factory()
        rng = np.random.default_rng(seed)
        model.load_state_dict(
            {
                k: v + rng.normal(scale=0.2, size=v.shape)
                for k, v in model.state_dict().items()
            }
        )
        path = tmp_path / f"ckpt{seed}.npz"
        save_checkpoint(model, path)
        paths.append(path)
    return paths


@pytest.fixture(autouse=True)
def _sparse():
    with sparse_policy(True):
        yield


def test_registry_reloads_a_b_a_serve_each_checkpoint(factory, checkpoints, probe):
    a, b = checkpoints
    registry = ModelRegistry(factory(), factory=factory, probe_corpus=probe)
    expected = {}
    for path in (a, b):
        model = factory()
        load_checkpoint(model, path)
        model._fitted = True
        expected[path] = model.transform(probe)
    assert not np.array_equal(expected[a], expected[b])
    for path in (a, b, a):
        assert registry.load(path)
        np.testing.assert_array_equal(registry.model.transform(probe), expected[path])


def test_load_state_dict_after_a_transform_is_picked_up(factory, checkpoints, probe):
    model = factory()
    states = []
    for path in checkpoints:
        load_checkpoint(model, path)
        states.append(model.state_dict())
    model._fitted = True
    for state in (states[0], states[1], states[0]):
        model.load_state_dict(state)
        cached_before = first_layer(model)._weight_t
        np.testing.assert_array_equal(
            model.transform(probe), fresh_theta(factory, state, probe)
        )
        assert first_layer(model)._weight_t is not cached_before


def test_transform_from_a_callback_sees_every_step(factory, tiny_corpus, probe):
    class Probe(Callback):
        def __init__(self):
            self.pairs = []

        def on_epoch_end(self, model, epoch, logs):
            self.pairs.append(
                (model.transform(probe), fresh_theta(factory, model.state_dict(), probe))
            )
            return False

    model = factory()
    model._fitted = True  # lets the callback transform from the first epoch
    callback = Probe()
    model.fit(tiny_corpus, callbacks=[callback])
    assert len(callback.pairs) == CONFIG.epochs
    for got, want in callback.pairs:
        np.testing.assert_array_equal(got, want)
    assert not np.array_equal(callback.pairs[0][0], callback.pairs[-1][0])


def test_the_cache_is_reused_while_the_weights_stand(factory, probe):
    model = factory()
    model._fitted = True
    model.transform(probe)
    layer = first_layer(model)
    cached = layer._weight_t
    assert cached[0] is layer.weight.data
    assert cached[1].flags.c_contiguous
    np.testing.assert_array_equal(cached[1], layer.weight.data.T)
    model.transform(probe)
    assert layer._weight_t is cached

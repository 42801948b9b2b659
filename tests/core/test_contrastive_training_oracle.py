"""Training through the fused contrastive kernels is bitwise the training
through their references.

The references patched in are the composed Eq. 2 loss
(``topic_contrastive_loss_composed``) and the allocating Gumbel draw the
in-place kernel replaced (``tests/core/_legacy_sampler``).  The relaxed
top-k sampler is the same kernel on both sides: its probability domain
is not bitwise any reference, and ``test_subset_sampling.py`` holds its
oracles.  Both routes to the term are covered — the ContraTopic facade
and the standalone ``contrastive`` objective spec on a bare ETM — in
every contrastive mode and in both float dtypes.  Parameters, every loss column of the history
and every RNG stream must come out identical.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    ContraTopic,
    ContraTopicConfig,
    ContrastiveMode,
    contrastive,
    npmi_kernel,
    subset_sampling,
)
from repro.models import ETM
from repro.objectives import ObjectiveSpec
from repro.tensor.dtypes import default_dtype
from repro.training.trainer import RunSpec, Trainer
from tests.core._composed_contrastive import topic_contrastive_loss_composed
from tests.core._legacy_sampler import legacy_sample_gumbel

LOSS_KEYS = ("rec", "kl", "extra", "total", "grad_norm", "objective_contrastive")
NEGATIVE_WEIGHT = 3.0


def _train(route, mode, dtype, corpus, npmi, embeddings, config):
    with default_dtype(dtype):
        backbone = ETM(corpus.vocab_size, config, embeddings.vectors)
        if route == "contratopic":
            model = ContraTopic(
                backbone,
                npmi_kernel(npmi),
                ContraTopicConfig(mode=mode, negative_weight=NEGATIVE_WEIGHT),
            )
            Trainer().fit(model, corpus)
        else:
            spec = ObjectiveSpec(
                "contrastive",
                params={"mode": mode.value, "negative_weight": NEGATIVE_WEIGHT},
            )
            model = backbone
            Trainer(RunSpec(objectives=(spec,))).fit(model, corpus)
    return model


def _counting(fn, calls, name):
    def wrapped(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("mode", list(ContrastiveMode))
@pytest.mark.parametrize("route", ["contratopic", "spec"])
def test_training_is_bitwise_the_reference_training(
    route, mode, dtype, tiny_corpus, tiny_npmi, tiny_embeddings, fast_config,
    monkeypatch,
):
    config = replace(fast_config, epochs=2)
    args = (route, mode, dtype, tiny_corpus, tiny_npmi, tiny_embeddings, config)
    fused = _train(*args)

    calls: dict[str, int] = {}
    for module, name, reference in (
        (subset_sampling, "sample_gumbel", legacy_sample_gumbel),
        (contrastive, "topic_contrastive_loss", topic_contrastive_loss_composed),
    ):
        monkeypatch.setattr(module, name, _counting(reference, calls, name))
    oracle = _train(*args)
    monkeypatch.undo()

    batches = len(fused.history) * -(-len(tiny_corpus) // config.batch_size)
    assert calls == {
        "sample_gumbel": batches,
        "topic_contrastive_loss": batches,
    }

    assert all(
        param.data.dtype == np.dtype(dtype) for _, param in fused.named_parameters()
    )
    state, oracle_state = fused.state_dict(), oracle.state_dict()
    assert set(state) == set(oracle_state)
    for name, value in state.items():
        assert value.tobytes() == oracle_state[name].tobytes(), name

    assert len(fused.history) == len(oracle.history) == config.epochs
    for row, oracle_row in zip(fused.history, oracle.history):
        for key in LOSS_KEYS:
            if key in oracle_row:
                assert row[key] == oracle_row[key], key
        assert row["objective_contrastive"] == oracle_row["objective_contrastive"]

    streams, oracle_streams = fused.rng_streams(), oracle.rng_streams()
    assert set(streams) == set(oracle_streams)
    for name, rng in streams.items():
        assert rng.bit_generator.state == oracle_streams[name].bit_generator.state

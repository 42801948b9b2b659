"""``Trainer.fit`` is bitwise a plain Algorithm 1 loop written outside it.

The reference below is the paper's training loop with nothing else in it:
Adam at the configured rate, one shuffled pass over the corpus per epoch
from the seed-derived batch stream, and zero_grad → loss → backward →
clip → step per batch.  Without a guard, fault plan or callback the
trainer must reach exactly the same parameters, Adam moments and RNG
stream states — for a plain ETM and for ContraTopic, in both float
dtypes.  (``TestBitwiseFacade`` compares two routes into the same
trainer; this is the comparison with code outside it.)
"""

import numpy as np
import pytest

from repro.core import ContraTopic, ContraTopicConfig, npmi_kernel
from repro.data.loaders import BatchIterator
from repro.models import ETM
from repro.nn.optim import Adam, clip_grad_norm
from repro.tensor.dtypes import default_dtype, get_default_dtype
from repro.training.trainer import Trainer


def reference_fit(model, corpus):
    """Algorithm 1 as a bare loop; returns ``(optimizer, batch_rng)``."""
    config = model.config
    model.train()
    model.on_fit_start(corpus)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    batch_rng = np.random.default_rng(config.seed + 1)
    batches = BatchIterator(
        corpus, batch_size=config.batch_size, rng=batch_rng,
        dtype=get_default_dtype(),
    )
    for _ in range(config.epochs):
        for bow in batches:
            optimizer.zero_grad()
            loss, _ = model.loss_on_batch(bow)
            loss.backward()
            clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
    model.eval()
    return optimizer, batch_rng


def _build(kind, corpus, config, embeddings, npmi):
    backbone = ETM(corpus.vocab_size, config, embeddings.vectors)
    if kind == "etm":
        return backbone
    return ContraTopic(backbone, npmi_kernel(npmi), ContraTopicConfig())


def _stream_states(model, batch_rng):
    states = {
        name: rng.bit_generator.state
        for name, rng in model.rng_streams().items()
    }
    states["batch"] = batch_rng.bit_generator.state
    return states


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("kind", ["etm", "contratopic"])
def test_trainer_is_bitwise_the_reference_loop(
    kind, dtype, tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
):
    args = (kind, tiny_corpus, fast_config, tiny_embeddings, tiny_npmi)
    with default_dtype(dtype):
        trained = _build(*args)
        Trainer().fit(trained, tiny_corpus)
        reference = _build(*args)
        ref_optimizer, ref_batch_rng = reference_fit(reference, tiny_corpus)

    params, ref_params = trained.state_dict(), reference.state_dict()
    assert params.keys() == ref_params.keys()
    for name in params:
        assert np.array_equal(params[name], ref_params[name]), name

    moments = trained._trainer.optimizer.state_dict()
    ref_moments = ref_optimizer.state_dict()
    assert moments.keys() == ref_moments.keys()
    assert int(moments["step_count"]) == len(trained.history) * -(
        -len(tiny_corpus) // fast_config.batch_size
    )
    for name in moments:
        assert np.array_equal(moments[name], ref_moments[name]), name

    assert _stream_states(trained, trained._trainer.batch_rng) == _stream_states(
        reference, ref_batch_rng
    )

"""The eval forward behind ``transform`` against the Tensor encoder.

``NeuralTopicModel.transform`` runs :meth:`VaeEncoder.infer_theta` on
plain arrays.  The oracle is the training definition: ``encode_theta(
sample=False)`` under ``no_grad`` in eval mode, batched exactly as
``transform`` batches (zero-copy CSR row views, a batch at or above
``SPARSE_DENSITY_THRESHOLD`` densified).  θ must be bitwise equal for
every VaeEncoder model in the registry, both dtypes, both sparse
policies, every activation and a two-layer trunk.

The guards pin what makes the eval forward cheap: a sparse ``transform``
builds no ``scipy.sparse`` matrix and never walks module modes, and a
sparse training step builds no ``scipy.sparse`` matrix either.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import _compressed

from repro.data.corpus import Corpus
from repro.models.base import NTMConfig
from repro.models.registry import available_models, build_model
from repro.nn.layers import _ACTIVATIONS
from repro.nn.module import Module
from repro.tensor import no_grad
from repro.tensor.dtypes import (
    SPARSE_DENSITY_THRESHOLD,
    default_dtype,
    get_default_dtype,
    get_sparse_policy,
    sparse_policy,
)

VAE_MODELS = tuple(name for name in available_models() if name != "lda")
DTYPES = ("float32", "float64")
BATCH_SIZE = 4


def tensor_path_transform(model, corpus: Corpus) -> np.ndarray:
    """``transform`` as the Tensor encoder computes it (the oracle)."""
    dtype = get_default_dtype()
    size = model.config.batch_size
    if get_sparse_policy().use_sparse(corpus.bow_density()):
        csr = corpus.bow_csr(dtype)
        batches = [csr.slice_rows(s, s + size) for s in range(0, len(corpus), size)]
        batches = [
            b.toarray() if b.density >= SPARSE_DENSITY_THRESHOLD else b
            for b in batches
        ]
    else:
        bow = corpus.bow_matrix(dtype)
        batches = [bow[s : s + size] for s in range(0, len(corpus), size)]
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            thetas = [model.encode_theta(b, sample=False)[0].data for b in batches]
    finally:
        model.train(was_training)
    return np.concatenate(thetas, axis=0)


def randomized(model, seed: int):
    """Random weights and non-trivial batch-norm statistics, marked fitted."""
    rng = np.random.default_rng(seed)
    state = {
        name: (
            rng.uniform(0.5, 2.0, size=value.shape)
            if name.endswith("running_var")
            else rng.normal(scale=0.3, size=value.shape)
        )
        for name, value in model.state_dict().items()
    }
    model.load_state_dict(state)
    model._fitted = True
    return model


@pytest.fixture(scope="module")
def corpora(tiny_corpus):
    """Corpora of 1, 2, batch_size and batch_size + 1 documents, the full
    corpus, and one whose first batch is at or above the density threshold
    while the corpus as a whole stays below it."""
    docs = tiny_corpus.documents
    vocab = tiny_corpus.vocabulary
    rng = np.random.default_rng(7)
    v = tiny_corpus.vocab_size
    dense_head = [rng.integers(0, v, size=2 * v) for _ in range(BATCH_SIZE)]
    mixed = Corpus(dense_head + docs[: 12 * BATCH_SIZE], vocab)
    assert mixed.bow_csr().slice_rows(0, BATCH_SIZE).density >= SPARSE_DENSITY_THRESHOLD
    assert mixed.bow_density() < SPARSE_DENSITY_THRESHOLD
    return {
        "1": Corpus(docs[:1], vocab),
        "2": Corpus(docs[:2], vocab),
        "batch": Corpus(docs[:BATCH_SIZE], vocab),
        "batch+1": Corpus(docs[: BATCH_SIZE + 1], vocab),
        "all": tiny_corpus,
        "dense-batch": mixed,
    }


def assert_transform_matches_tensor_path(model, corpora) -> None:
    for name, corpus in corpora.items():
        got = model.transform(corpus)
        want = tensor_path_transform(model, corpus)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", VAE_MODELS)
def test_every_registry_model(
    name, dtype, sparse, corpora, tiny_corpus, tiny_embeddings, tiny_npmi
):
    with default_dtype(dtype), sparse_policy(sparse):
        config = NTMConfig(num_topics=6, hidden_sizes=(16,), batch_size=BATCH_SIZE)
        model = build_model(
            name,
            tiny_corpus.vocab_size,
            config,
            word_embeddings=tiny_embeddings.vectors,
            npmi=tiny_npmi,
        )
        randomized(model, seed=len(name))
        assert model.transform(corpora["1"]).dtype == np.dtype(dtype)
        assert_transform_matches_tensor_path(model, corpora)


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "activation, hidden",
    [(name, (16,)) for name in sorted(_ACTIVATIONS)] + [("selu", (16, 8))],
    ids=[*sorted(_ACTIVATIONS), "two-layer-trunk"],
)
def test_every_activation_and_a_two_layer_trunk(
    activation, hidden, dtype, sparse, corpora, tiny_corpus
):
    with default_dtype(dtype), sparse_policy(sparse):
        config = NTMConfig(
            num_topics=6,
            hidden_sizes=hidden,
            activation=activation,
            batch_size=BATCH_SIZE,
        )
        model = randomized(build_model("prodlda", tiny_corpus.vocab_size, config), 3)
        assert_transform_matches_tensor_path(model, corpora)


def test_a_fitted_model_in_training_mode(corpora, tiny_corpus, fast_config):
    # A validation callback calls transform() on a model mid-fit: the eval
    # forward must still apply eval semantics and leave the mode alone.
    model = build_model("prodlda", tiny_corpus.vocab_size, fast_config)
    model.fit(tiny_corpus)
    model.train()
    got = model.transform(corpora["all"])
    assert model.training and all(m.training for m in model.modules())
    np.testing.assert_array_equal(got, tensor_path_transform(model, corpora["all"]))


class TestGuards:
    @pytest.fixture()
    def no_scipy_matrices(self, monkeypatch):
        built = []

        def record(self, *args, **kwargs):
            built.append(type(self).__name__)
            raise AssertionError("a scipy.sparse matrix was built")

        monkeypatch.setattr(_compressed._cs_matrix, "__init__", record)
        return built

    @pytest.fixture()
    def no_mode_walks(self, monkeypatch):
        def walk(self, mode=True):
            raise AssertionError("transform toggled module modes")

        monkeypatch.setattr(Module, "train", walk)

    @pytest.mark.parametrize("name", ["etm", "prodlda", "contratopic"])
    def test_sparse_transform_builds_no_scipy_matrix_and_walks_no_modes(
        self, name, tiny_corpus, tiny_embeddings, tiny_npmi, request
    ):
        config = NTMConfig(num_topics=6, hidden_sizes=(16,), batch_size=8)
        model = build_model(
            name,
            tiny_corpus.vocab_size,
            config,
            word_embeddings=tiny_embeddings.vectors,
            npmi=tiny_npmi,
        )
        randomized(model, 0).eval()
        request.getfixturevalue("no_scipy_matrices")
        request.getfixturevalue("no_mode_walks")
        with sparse_policy(True):
            corpus = Corpus(tiny_corpus.documents[:20], tiny_corpus.vocabulary)
            theta = model.transform(corpus)
            single = model.transform(Corpus(tiny_corpus.documents[:1], tiny_corpus.vocabulary))
        assert theta.shape == (20, 6)
        # A GEMM's bits may depend on the batch it runs in; values may not.
        np.testing.assert_allclose(single, theta[:1], rtol=1e-12)

    @pytest.mark.parametrize("name", ["etm", "prodlda"])
    @pytest.mark.parametrize("density", ["gather", "gemm"])
    def test_sparse_training_step_builds_no_scipy_matrix(
        self, name, density, tiny_corpus, tiny_embeddings, no_scipy_matrices
    ):
        from repro.tensor.fused import _GEMM_DECODE_DENSITY

        config = NTMConfig(num_topics=6, hidden_sizes=(16,), batch_size=8)
        model = build_model(
            name, tiny_corpus.vocab_size, config, word_embeddings=tiny_embeddings.vectors
        )
        dtype = get_default_dtype()
        if density == "gather":  # five-token documents decode by gathers
            short = [doc[:5] for doc in tiny_corpus.documents[:8]]
            batch = Corpus(short, tiny_corpus.vocabulary).bow_csr(dtype)
        else:  # the densest documents decode by one GEMM
            csr = tiny_corpus.bow_csr(dtype)
            batch = csr.take_rows(np.argsort(csr.row_nnz())[-8:])
        assert (batch.density >= _GEMM_DECODE_DENSITY) == (density == "gemm")
        loss, _ = model.loss_on_batch(batch)
        loss.backward()
        first = model.encoder.trunk.body.layer0.weight
        assert first.grad is not None and np.isfinite(first.grad).all()
        assert no_scipy_matrices == []

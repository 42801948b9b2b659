"""Embedding substrate: window counts, PPMI, SVD, the store."""

import numpy as np
import pytest
from scipy import sparse

from repro.data import Corpus, Vocabulary
from repro.embeddings import (
    EmbeddingStore,
    build_embeddings,
    ppmi_matrix,
    svd_embeddings,
    window_cooccurrence_counts,
)
from repro.errors import ConfigError, ShapeError


@pytest.fixture
def seq_corpus():
    """Word order matters: 0-1 adjacent; 2 far from 0."""
    vocab = Vocabulary(["a", "b", "c", "d"])
    return Corpus([[0, 1, 2, 3], [0, 1, 3, 2]], vocab)


class TestWindowCounts:
    def test_symmetric(self, seq_corpus):
        counts = window_cooccurrence_counts(seq_corpus, window_size=2).toarray()
        np.testing.assert_allclose(counts, counts.T)

    def test_window_one_counts_adjacency(self, seq_corpus):
        counts = window_cooccurrence_counts(
            seq_corpus, window_size=1, distance_weighting=False
        ).toarray()
        assert counts[0, 1] == 2  # "a b" in both docs
        assert counts[0, 2] == 0  # never adjacent

    def test_distance_weighting(self, seq_corpus):
        weighted = window_cooccurrence_counts(seq_corpus, window_size=3).toarray()
        # (a,b) at distance 1 in both docs -> 2.0; (a,c) at distances 2, 3
        np.testing.assert_allclose(weighted[0, 1], 2.0)
        np.testing.assert_allclose(weighted[0, 2], 0.5 + 1.0 / 3.0)

    def test_invalid_window(self, seq_corpus):
        with pytest.raises(ConfigError):
            window_cooccurrence_counts(seq_corpus, window_size=0)


class TestPpmi:
    def test_non_negative(self):
        rng = np.random.default_rng(0)
        counts = np.abs(rng.normal(size=(6, 6)))
        counts = counts + counts.T
        assert (ppmi_matrix(counts) >= 0).all()

    def test_zero_counts_give_zero(self):
        counts = np.zeros((3, 3))
        np.testing.assert_allclose(ppmi_matrix(counts), np.zeros((3, 3)))

    def test_associated_pair_positive(self):
        # words 0,1 co-occur far above chance
        counts = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        ppmi = ppmi_matrix(counts)
        assert ppmi[0, 1] > ppmi[0, 2]

    def test_shift_reduces_values(self):
        counts = np.array([[0.0, 10.0], [10.0, 0.0]])
        assert ppmi_matrix(counts, shift=1.0).sum() < ppmi_matrix(counts).sum()

    def test_sparse_input(self):
        counts = sparse.csr_matrix(np.array([[0.0, 4.0], [4.0, 0.0]]))
        assert ppmi_matrix(counts).shape == (2, 2)

    def test_requires_square(self):
        with pytest.raises(ShapeError):
            ppmi_matrix(np.zeros((2, 3)))


class TestSvdEmbeddings:
    def test_shape(self):
        rng = np.random.default_rng(0)
        m = np.abs(rng.normal(size=(20, 20)))
        vectors = svd_embeddings(m + m.T, dim=5)
        assert vectors.shape == (20, 5)

    def test_dim_validation(self):
        with pytest.raises(ConfigError):
            svd_embeddings(np.eye(4), dim=4)
        with pytest.raises(ConfigError):
            svd_embeddings(np.eye(4), dim=0)

    def test_block_structure_recovered(self):
        # Two word communities in the PPMI -> nearer in embedding space.
        m = np.zeros((8, 8))
        m[:4, :4] = 3.0
        m[4:, 4:] = 3.0
        vectors = svd_embeddings(m, dim=2)
        def cos(i, j):
            denom = np.linalg.norm(vectors[i]) * np.linalg.norm(vectors[j]) + 1e-12
            return vectors[i] @ vectors[j] / denom
        assert cos(0, 1) > cos(0, 5)

    def test_column_signs_canonical(self):
        rng = np.random.default_rng(1)
        m = np.abs(rng.normal(size=(30, 30)))
        vectors = svd_embeddings(m + m.T, dim=8)
        top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(8)]
        assert (top > 0).all()

    def test_rounding_level_count_change_moves_no_sign(self):
        # Window counts summed in another order differ by ~1e-14 relative;
        # the Lanczos basis can flip a column's sign for such a change, the
        # canonical sign may not.
        rng = np.random.default_rng(0)
        v = 120
        p = 1.0 / np.arange(1, v + 1)
        docs = [
            rng.choice(v, size=int(rng.integers(2, 120)), p=p / p.sum())
            for _ in range(400)
        ]
        corpus = Corpus(docs, Vocabulary(f"w{i}" for i in range(v)))
        counts = window_cooccurrence_counts(corpus).toarray()
        noise = rng.uniform(-1.0, 1.0, size=counts.shape)
        perturbed = counts * (1.0 + 1e-13 * (noise + noise.T) / 2)
        want = svd_embeddings(ppmi_matrix(counts), dim=20)
        got = svd_embeddings(ppmi_matrix(perturbed), dim=20)
        top = np.argmax(np.abs(want), axis=0)
        np.testing.assert_array_equal(
            np.sign(got[top, np.arange(20)]), np.sign(want[top, np.arange(20)])
        )
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


class TestStore:
    def test_semantic_neighbours(self, tiny_embeddings, tiny_corpus):
        vocab = tiny_corpus.vocabulary
        if "space" in vocab and "nasa" in vocab:
            neighbours = [w for w, _ in tiny_embeddings.nearest("space", 10)]
            assert "nasa" in neighbours or "orbit" in neighbours

    def test_cosine_similarity_self(self, tiny_embeddings, tiny_corpus):
        token = tiny_corpus.vocabulary.token_of(0)
        assert tiny_embeddings.cosine_similarity(token, token) == pytest.approx(1.0)

    def test_vector_shape(self, tiny_embeddings):
        assert tiny_embeddings.vectors.shape[1] == tiny_embeddings.dim

    def test_misaligned_vectors_rejected(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ShapeError):
            EmbeddingStore(vocab, np.zeros((3, 4)))

    def test_dim_clamped_to_vocab(self, toy_corpus):
        store = build_embeddings(toy_corpus, dim=100)
        assert store.dim == toy_corpus.vocab_size - 1

    def test_toy_communities_separate(self, toy_corpus):
        store = build_embeddings(toy_corpus, dim=3, window_size=3)
        within = store.cosine_similarity("alpha", "beta")
        across = store.cosine_similarity("alpha", "epsilon")
        assert within > across

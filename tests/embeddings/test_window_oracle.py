"""Oracles for the loop-free window co-occurrence count.

``window_cooccurrence_counts`` is checked against the per-document loop it
replaced (``tests/embeddings/_legacy_window_counts.py``) within 1e-12
relative, against a ``Fraction``-exact sum within float64 rounding, and
its ``np.unique`` branch bitwise against its dense ``np.bincount`` branch.
"""

from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from repro.data import Corpus, Vocabulary
from repro.embeddings import window_cooccurrence as wc
from repro.embeddings import window_cooccurrence_counts
from tests.embeddings._legacy_window_counts import legacy_window_counts


def _corpus(docs, v):
    return Corpus(docs, Vocabulary(f"w{i}" for i in range(v)))


def _zipf_corpus(seed, num_docs, v, mean_length):
    """Zipf-distributed tokens; every tenth document is a single token."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, v + 1)
    sizes = [1 if i % 10 == 9 else int(rng.integers(2, 2 * mean_length)) for i in range(num_docs)]
    docs = [rng.choice(v, size=size, p=p / p.sum()) for size in sizes]
    return _corpus(docs, v)


def _fraction_counts(docs, v, window_size, distance_weighting):
    """The counts summed exactly in rationals, rounded once to float64."""
    exact = defaultdict(Fraction)
    for doc in docs:
        for k in range(len(doc)):
            for d in range(1, window_size + 1):
                if k + d < len(doc):
                    w = Fraction(1, d) if distance_weighting else Fraction(1)
                    exact[doc[k], doc[k + d]] += w
                    exact[doc[k + d], doc[k]] += w
    dense = np.zeros((v, v))
    for (i, j), value in exact.items():
        dense[i, j] = float(value)
    return dense


def _assert_rounding_close(got, want, window_size):
    """Within float64 rounding of the exact sum.

    fl(1/d), its product with c_d, at most window_size - 1 additions and
    the symmetrizing one make window_size + 2 roundings of unit 2^-53;
    one more is allowed for the final rounding of the reference.
    """
    assert np.array_equal(got != 0, want != 0)
    rtol = (window_size + 3) * np.finfo(np.float64).eps / 2
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def _assert_csr_identical(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


SMALL = {
    "single_tokens": ([[3], [0, 1, 2, 3], [2], [1]], 4),
    "window_past_document": ([[0, 1, 2], [2, 3], [1, 0, 3, 2]], 4),
    "repeated_tokens": ([[1, 1, 1, 1, 2, 1], [0, 0], [2, 1, 2, 1, 2]], 3),
    "one_document": ([[4, 0, 3, 1, 2, 0, 4, 4, 1, 3, 2]], 5),
    "no_pairs": ([[0], [1], [2]], 3),
}


class TestFractionExact:
    @pytest.mark.parametrize("case", sorted(SMALL))
    @pytest.mark.parametrize("window_size", [1, 2, 5, 12])
    @pytest.mark.parametrize("distance_weighting", [True, False])
    def test_small_corpora(self, case, window_size, distance_weighting):
        docs, v = SMALL[case]
        got = window_cooccurrence_counts(
            _corpus(docs, v), window_size=window_size, distance_weighting=distance_weighting
        ).toarray()
        want = _fraction_counts(docs, v, window_size, distance_weighting)
        _assert_rounding_close(got, want, window_size)
        if not distance_weighting:
            np.testing.assert_array_equal(got, want)  # integer counts are exact

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpora(self, seed):
        corpus = _zipf_corpus(seed, num_docs=40, v=15, mean_length=8)
        docs = [doc.tolist() for doc in corpus.documents]
        got = window_cooccurrence_counts(corpus, window_size=4).toarray()
        _assert_rounding_close(got, _fraction_counts(docs, 15, 4, True), window_size=4)


class TestLegacyLoop:
    def test_train_nyt_sized_corpus(self):
        # 6,000 documents, V = 504 and ~850k tokens, like perfbench train-nyt.
        corpus = _zipf_corpus(0, num_docs=6000, v=504, mean_length=157)
        got = window_cooccurrence_counts(corpus)
        want = legacy_window_counts(corpus)
        assert got.nnz == want.nnz
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", sorted(SMALL))
    @pytest.mark.parametrize("window_size", [1, 3, 12])
    @pytest.mark.parametrize("distance_weighting", [True, False])
    def test_small_corpora(self, case, window_size, distance_weighting):
        docs, v = SMALL[case]
        corpus = _corpus(docs, v)
        kwargs = {"window_size": window_size, "distance_weighting": distance_weighting}
        got = window_cooccurrence_counts(corpus, **kwargs).toarray()
        want = legacy_window_counts(corpus, **kwargs).toarray()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestUniqueBranch:
    """Counting unique pair ids gives the dense branch's bits."""

    @pytest.mark.parametrize("case", sorted(SMALL))
    @pytest.mark.parametrize("distance_weighting", [True, False])
    def test_small_corpora(self, monkeypatch, case, distance_weighting):
        docs, v = SMALL[case]
        corpus = _corpus(docs, v)
        want = window_cooccurrence_counts(corpus, distance_weighting=distance_weighting)
        monkeypatch.setattr(wc, "_DENSE_PAIR_LIMIT", 0)
        got = window_cooccurrence_counts(corpus, distance_weighting=distance_weighting)
        _assert_csr_identical(got, want)

    @pytest.mark.parametrize("window_size", [1, 5, 9])
    def test_zipf_corpus(self, monkeypatch, window_size):
        corpus = _zipf_corpus(3, num_docs=800, v=300, mean_length=60)
        assert corpus.vocab_size**2 <= wc._DENSE_PAIR_LIMIT
        want = window_cooccurrence_counts(corpus, window_size=window_size)
        monkeypatch.setattr(wc, "_DENSE_PAIR_LIMIT", corpus.vocab_size**2 - 1)
        got = window_cooccurrence_counts(corpus, window_size=window_size)
        _assert_csr_identical(got, want)

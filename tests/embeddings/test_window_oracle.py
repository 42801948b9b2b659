"""Oracles for the loop-free, blocked window co-occurrence count.

``window_cooccurrence_counts`` is checked against the per-document loop it
replaced (``tests/embeddings/_legacy_window_counts.py``) within 1e-12
relative, against a ``Fraction``-exact sum within float64 rounding, and
its ``np.unique`` branch bitwise against its dense branch.  At any block
size, and in both branches, its CSR arrays are bitwise those of the
unblocked count it replaced, and ``ppmi_matrix`` and ``svd_embeddings``
give the bits of their versions that allocated per step
(``tests/embeddings/_unblocked_embeddings.py``).  Its memory does not
grow with the corpus at a fixed vocabulary.
"""

import tracemalloc
import warnings
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from repro.data import Corpus, Vocabulary
from repro.embeddings import build_embeddings, ppmi_matrix, svd_embeddings
from repro.embeddings import window_cooccurrence as wc
from repro.embeddings import window_cooccurrence_counts
from tests.embeddings._legacy_window_counts import legacy_window_counts
from tests.embeddings._unblocked_embeddings import (
    unblocked_ppmi_matrix,
    unblocked_svd_embeddings,
    unblocked_window_counts,
)


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


class _Documents:
    """What the count reads of a corpus; unlike a Corpus it admits empty
    documents."""

    def __init__(self, docs, v):
        self.documents = [np.asarray(doc, dtype=np.int64) for doc in docs]
        self.vocab_size = v

    def document_lengths(self):
        return np.array([doc.size for doc in self.documents], dtype=np.int64)


BLOCKED = {
    # Longer than a 7-token block, around a short document.
    "long_documents": ([list(range(5)) * 3, [1, 4], [3, 0, 2, 2, 4, 1, 0, 3, 1, 2]], 5),
    # Leading, middle and trailing empty documents and 1-token ones.
    "empty_and_single": ([[], [2], [0, 1, 2, 3, 1], [], [], [4], [3, 3], [1], []], 5),
    # Every window reaches past its document at window_size 12.
    "short_documents": ([[0, 1], [2, 3, 0], [1], [3, 2, 1, 0]], 4),
    "zipf": (
        [[], *(doc.tolist() for doc in _zipf_corpus(5, 120, 30, 9).documents), []],
        30,
    ),
}


class TestBlockedCount:
    """Any block size gives the unblocked count's CSR arrays bitwise."""

    @pytest.mark.parametrize("case", sorted(BLOCKED))
    @pytest.mark.parametrize("block_tokens", [1, 7, 1 << 30])
    @pytest.mark.parametrize("branch", ["dense", "unique"])
    @pytest.mark.parametrize("window_size", [1, 3, 12])
    @pytest.mark.parametrize("distance_weighting", [True, False])
    def test_matches_unblocked(
        self, monkeypatch, case, block_tokens, branch, window_size, distance_weighting
    ):
        docs, v = BLOCKED[case]
        corpus = _Documents(docs, v)
        kwargs = {"window_size": window_size, "distance_weighting": distance_weighting}
        want = unblocked_window_counts(corpus, **kwargs)
        monkeypatch.setattr(wc, "_BLOCK_TOKENS", block_tokens)
        if branch == "unique":
            monkeypatch.setattr(wc, "_DENSE_PAIR_LIMIT", 0)
        _assert_csr_identical(window_cooccurrence_counts(corpus, **kwargs), want)

    @pytest.mark.parametrize("branch", ["dense", "unique"])
    def test_train_nyt_sized_corpus(self, monkeypatch, branch):
        corpus = _zipf_corpus(0, num_docs=6000, v=504, mean_length=157)
        want = unblocked_window_counts(corpus)
        if branch == "unique":
            monkeypatch.setattr(wc, "_DENSE_PAIR_LIMIT", 0)
        _assert_csr_identical(window_cooccurrence_counts(corpus), want)


class TestPpmiAndSvd:
    """The in-place PPMI and the uncopied SVD input keep their bits."""

    @pytest.fixture(scope="class")
    def counts(self):
        return window_cooccurrence_counts(_zipf_corpus(1, num_docs=600, v=200, mean_length=40))

    @pytest.mark.parametrize("shift", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("smoothing", [1.0, 0.75])
    def test_ppmi_matches(self, counts, shift, smoothing):
        got = ppmi_matrix(counts, shift=shift, smoothing=smoothing)
        want = unblocked_ppmi_matrix(counts, shift=shift, smoothing=smoothing)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "convert",
        [
            sparse.csr_matrix.toarray,
            lambda c: c.astype(np.float32),
            lambda c: c.toarray().astype(np.int64),
            lambda c: sparse.csr_matrix(np.pad(c.toarray(), (0, 1))),
        ],
        ids=["dense_float64", "sparse_float32", "dense_int64", "word_without_counts"],
    )
    def test_ppmi_matches_other_inputs_and_leaves_them_alone(self, counts, convert):
        given = convert(counts)
        before = given.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ppmi_matrix(given)
        want = unblocked_ppmi_matrix(given)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if sparse.issparse(given):
            given, before = given.toarray(), before.toarray()
        np.testing.assert_array_equal(given, before)

    def test_svd_matches(self, counts):
        ppmi = ppmi_matrix(counts)
        want = unblocked_svd_embeddings(ppmi, dim=20)
        assert svd_embeddings(ppmi, dim=20).tobytes() == want.tobytes()

    def test_embedding_vectors_match(self):
        corpus = _zipf_corpus(2, num_docs=400, v=150, mean_length=30)
        counts = unblocked_window_counts(corpus)
        want = unblocked_svd_embeddings(unblocked_ppmi_matrix(counts), dim=16)
        assert build_embeddings(corpus, dim=16).vectors.tobytes() == want.tobytes()


def _traced_peak(function, *args):
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    def _corpus(self, tokens, v=100, mean_length=400):
        """``tokens`` Zipf tokens cut into documents of 1 to 800 tokens."""
        rng = np.random.default_rng(0)
        p = 1.0 / np.arange(1, v + 1)
        stream = rng.choice(v, size=tokens, p=p / p.sum())
        cuts = np.cumsum(rng.integers(1, 2 * mean_length, size=2 * tokens // mean_length))
        return _corpus(np.split(stream, cuts[cuts < tokens]), v)

    def test_count_peak_does_not_grow_with_the_corpus(self, monkeypatch):
        # 8 and 32 blocks of 2^14 tokens at V = 100, where 2^17 tokens
        # already see every pair: the unblocked count's per-token arrays
        # made its peak grow 4x (5.5 -> 21.6 MB), the blocked one's grows
        # by the 8-byte document lengths alone (~2%).
        monkeypatch.setattr(wc, "_BLOCK_TOKENS", 1 << 14)
        small = _traced_peak(window_cooccurrence_counts, self._corpus(1 << 17))
        large = _traced_peak(window_cooccurrence_counts, self._corpus(1 << 19))
        assert large <= 1.10 * small

    def test_ppmi_peak_is_at_most_four_square_arrays(self):
        counts = window_cooccurrence_counts(_zipf_corpus(4, num_docs=600, v=300, mean_length=40))
        assert _traced_peak(ppmi_matrix, counts) <= 4 * 300 * 300 * 8

"""Bitwise oracles for the vectorised document ingest.

The CSR bag-of-words build, the co-occurrence delta update, the
preprocessing transform and the document validation are checked against
the per-document loops they replaced (kept verbatim in
``tests/data/_legacy_ingest.py``): the same CSR arrays and dtypes, the
same counts and delta nnz after random slice schedules, the same corpora
and the same error messages.  ``Preprocessor.fit_transform``, which
tokenizes once, is checked against ``fit(texts).transform(texts)``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.data import Corpus, PreprocessConfig, Preprocessor, Vocabulary
from repro.errors import CorpusError
from repro.metrics import DocumentCooccurrence
from tests.data._legacy_ingest import (
    legacy_as_incidence,
    legacy_bow_sparse,
    legacy_fit,
    legacy_transform,
    legacy_update,
    legacy_validate_documents,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _vocab(size):
    return Vocabulary(f"w{i}" for i in range(size)).freeze()


def _random_docs(rng, num_docs, vocab_size, max_len=40):
    """Documents mixing the shapes a CSR build can trip on.

    Every fourth document is a single token and every seventh a run of
    one repeated token; the first two pin the extreme ids 0 and V-1.
    """
    docs = []
    for i in range(num_docs):
        if i % 4 == 3:
            doc = [int(rng.integers(0, vocab_size))]
        elif i % 7 == 6:
            doc = [int(rng.integers(0, vocab_size))] * int(rng.integers(2, 9))
        else:
            doc = rng.integers(0, vocab_size, size=rng.integers(1, max_len)).tolist()
        docs.append(doc)
    docs[0] = docs[0] + [0, 0]
    if num_docs > 1:
        docs[1] = [vocab_size - 1] + docs[1]
    else:
        docs[0] = docs[0] + [vocab_size - 1]
    return docs


def _assert_csr_identical(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _assert_counts_identical(got, want):
    assert got.num_documents == want.num_documents
    assert got.update_stats == want.update_stats
    for name in ("joint", "doc_freq"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _message(fn):
    with pytest.raises(CorpusError) as excinfo:
        fn()
    return str(excinfo.value)


class TestCsrBuild:
    @pytest.mark.parametrize("num_docs", [1, 1023, 1024, 1025, 3000])
    def test_matches_per_document_loop(self, num_docs):
        rng = np.random.default_rng(num_docs)
        vocab_size = 97
        corpus = Corpus(_random_docs(rng, num_docs, vocab_size), _vocab(vocab_size))
        want = legacy_bow_sparse(corpus.documents, vocab_size)
        _assert_csr_identical(corpus.bow_sparse(), want)
        binary = corpus.binary_doc_word()
        _assert_csr_identical(
            binary,
            sparse.csr_matrix(
                (np.ones_like(want.data), want.indices, want.indptr), shape=want.shape
            ),
        )

    def test_one_token_vocabulary(self):
        corpus = Corpus([[0], [0, 0, 0]], _vocab(1))
        _assert_csr_identical(
            corpus.bow_sparse(), legacy_bow_sparse(corpus.documents, 1)
        )

    def test_extend_rebuilds_identically(self):
        rng = np.random.default_rng(5)
        corpus = Corpus(_random_docs(rng, 700, 50), _vocab(50))
        corpus.bow_sparse()
        corpus.extend(_random_docs(rng, 900, 50))
        _assert_csr_identical(
            corpus.bow_sparse(), legacy_bow_sparse(corpus.documents, 50)
        )


class TestUpdate:
    @staticmethod
    def _slice(rng, form, vocab, vocab_size):
        docs = _random_docs(rng, int(rng.integers(1, 60)), vocab_size)
        if form == "corpus":
            return Corpus(docs, vocab)
        if form == "docs":
            return docs
        bow = legacy_bow_sparse(
            [np.asarray(doc, dtype=np.int64) for doc in docs], vocab_size
        )
        return bow.toarray() if form == "dense" else bow

    @pytest.mark.parametrize("seed", range(6))
    def test_random_schedules_bitwise(self, seed):
        rng = np.random.default_rng(100 + seed)
        vocab_size = int(rng.integers(2, 120))
        vocab = _vocab(vocab_size)
        new, old = DocumentCooccurrence.empty(vocab_size), DocumentCooccurrence.empty(vocab_size)
        for _ in range(12):
            form = ("corpus", "docs", "dense", "sparse", "empty")[int(rng.integers(0, 5))]
            piece = [] if form == "empty" else self._slice(rng, form, vocab, vocab_size)
            assert new.update(piece) == legacy_update(old, piece)
            _assert_counts_identical(new, old)

    def test_cold_counts_match_the_legacy_kernel(self):
        rng = np.random.default_rng(11)
        corpus = Corpus(_random_docs(rng, 1500, 80), _vocab(80))
        old = DocumentCooccurrence.empty(80)
        legacy_update(old, corpus)
        cold = DocumentCooccurrence.from_corpus(corpus, cache=False)
        _assert_counts_identical(cold, old)
        _assert_counts_identical(DocumentCooccurrence.from_bow(corpus.bow_sparse()), old)
        _assert_counts_identical(DocumentCooccurrence.from_bow(corpus.bow_matrix()), old)

    @pytest.mark.parametrize(
        "docs", [[[1], [2], []], [[1], [2, 5, -1]], [[1], [3], [0, 9]], [[], [9]]]
    )
    def test_slice_errors_unchanged(self, docs):
        counts = DocumentCooccurrence.empty(9)
        assert _message(lambda: counts.update(docs)) == _message(
            lambda: legacy_as_incidence(9, docs)
        )
        assert counts.num_documents == 0


class TestTransform:
    WORDS = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta"]
    NOISE = ["the", "and", "Zeta", "x", "42", "it's", "Alpha!", "BETA,", "rho-nu"]

    def _texts(self, rng, n):
        pool = self.WORDS + self.NOISE
        return [
            " ".join(rng.choice(pool, size=int(rng.integers(0, 12))))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_double_lookup(self, seed):
        rng = np.random.default_rng(seed)
        pre = Preprocessor(PreprocessConfig(min_doc_count=2)).fit(self._texts(rng, 80))
        texts = self._texts(rng, 300)
        labels = rng.integers(0, 5, size=len(texts)).tolist()
        got = pre.transform(texts, labels=labels)
        want = legacy_transform(pre, texts, labels=labels)
        assert len(got) == len(want)
        for a, b in zip(got.documents, want.documents):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got.labels, want.labels)


def _assert_corpora_identical(got, want):
    assert got.vocabulary.tokens() == want.vocabulary.tokens()
    assert got.vocabulary.frozen and want.vocabulary.frozen
    assert len(got) == len(want)
    for a, b in zip(got.documents, want.documents):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    if want.labels is None:
        assert got.labels is None
    else:
        assert got.labels.dtype == want.labels.dtype
        np.testing.assert_array_equal(got.labels, want.labels)
    assert got.label_names == want.label_names


class TestFitTransform:
    """One tokenizing pass equals ``fit(texts).transform(texts)`` bitwise."""

    CONFIGS = {
        "default": {"min_doc_count": 2},
        "all_df": {"min_doc_count": 1, "max_doc_frequency": 1.0},
        "capped": {"min_doc_count": 1, "max_vocab_size": 3},
        "long_docs": {"min_doc_count": 2, "min_doc_length": 4},
        "tight_df": {"min_doc_count": 3, "max_doc_frequency": 0.3},
    }

    def _texts(self, rng, n):
        # Empty texts, stop-word-only texts and short documents get dropped.
        texts = TestTransform()._texts(rng, n)
        texts[::17] = ["the and"] * len(texts[::17])
        texts[5::23] = [""] * len(texts[5::23])
        return texts

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("labelled", [False, True])
    def test_matches_fit_then_transform(self, config, seed, labelled):
        rng = np.random.default_rng(seed)
        texts = self._texts(rng, 200)
        labels = rng.integers(0, 5, size=len(texts)).tolist() if labelled else None
        names = [f"c{i}" for i in range(5)] if labelled else None
        cfg = PreprocessConfig(**self.CONFIGS[config])
        got = Preprocessor(cfg).fit_transform(texts, labels=labels, label_names=names)
        two_pass = Preprocessor(cfg).fit(texts)
        want = two_pass.transform(texts, labels=labels, label_names=names)
        assert len(want) < len(texts)  # some documents were dropped
        _assert_corpora_identical(got, want)
        assert two_pass.vocabulary == legacy_fit(Preprocessor(cfg), texts)

    @pytest.mark.parametrize(
        "empty",
        [[0], [0, 1, 2], [20, 21], [39], [37, 38, 39], [0, 19, 20, 39]],
        ids=["leading", "leading_run", "middle", "trailing", "trailing_run", "everywhere"],
    )
    @pytest.mark.parametrize("min_doc_length", [1, 2])
    def test_empty_texts_anywhere(self, empty, min_doc_length):
        # Kept-token counts per text come from a reduceat over the texts'
        # starts, which mishandles empty texts unless they are skipped.
        rng = np.random.default_rng(11)
        texts = [f"alpha beta {text}" for text in TestTransform()._texts(rng, 40)]
        texts[10] = texts[-2] = "the and"  # tokens, none of them kept
        for i in empty:
            texts[i] = ""
        labels = list(range(len(texts)))
        cfg = PreprocessConfig(
            min_doc_count=2, max_doc_frequency=1.0, min_doc_length=min_doc_length
        )
        got = Preprocessor(cfg).fit_transform(texts, labels=labels)
        want = Preprocessor(cfg).fit(texts).transform(texts, labels=labels)
        _assert_corpora_identical(got, want)

    def test_fitted_preprocessor_transforms_alike(self):
        rng = np.random.default_rng(7)
        texts = self._texts(rng, 120)
        pre = Preprocessor(PreprocessConfig(min_doc_count=2))
        pre.fit_transform(texts)
        held_out = self._texts(rng, 60)
        _assert_corpora_identical(
            pre.transform(held_out), legacy_transform(pre, held_out)
        )

    @pytest.mark.parametrize(
        "texts, config",
        [
            (["the and of", "it was"], {"min_doc_count": 1}),
            (["alpha beta", "gamma delta"], {"min_doc_count": 2}),
            (["alpha", "beta the", "alpha"], {"min_doc_count": 1}),
        ],
        ids=["stop_words_only", "every_token_filtered", "all_too_short"],
    )
    def test_errors_unchanged(self, texts, config):
        cfg = PreprocessConfig(max_doc_frequency=1.0, **config)
        got = _message(lambda: Preprocessor(cfg).fit_transform(texts))
        want = _message(lambda: Preprocessor(cfg).fit(texts).transform(texts))
        assert got == want


class TestValidationMessages:
    """Errors name the first offending document, as the loop did."""

    BAD = {
        "empty": [],
        "negative": [3, -1],
        "too_large": [0, 12],
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("k", [0, 3, 1500])
    def test_constructor(self, kind, k):
        docs = [[1, 2]] * (k + 5)
        docs[k] = self.BAD[kind]
        docs[-1] = self.BAD["empty"]  # a later offender must not be named
        arrays = [np.asarray(doc, dtype=np.int64) for doc in docs]
        want = _message(lambda: legacy_validate_documents(arrays, 12, first_index=0))
        assert f"document {k} " in want
        assert _message(lambda: Corpus(docs, _vocab(12))) == want

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("k", [0, 4])
    def test_extend(self, kind, k):
        corpus = Corpus([[1], [2], [3]], _vocab(12))
        docs = [[4, 5]] * 6
        docs[k] = self.BAD[kind]
        arrays = [np.asarray(doc, dtype=np.int64) for doc in docs]
        want = _message(lambda: legacy_validate_documents(arrays, 12, first_index=3))
        assert _message(lambda: corpus.extend(docs)) == want
        assert len(corpus) == 3


_HWM_SCRIPT = """
import sys
import numpy as np
sys.path[:0] = [{src!r}, {root!r}]
from repro.data import Corpus, Vocabulary
from tests.data._legacy_ingest import legacy_bow_sparse

def hwm_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

rng = np.random.default_rng(0)
vocab = Vocabulary(f"w{{i}}" for i in range(504))
corpus = Corpus(
    [rng.integers(0, 504, size=rng.integers(20, 80)) for _ in range(32000)], vocab
)
before = hwm_kb()
if sys.argv[1] == "legacy":
    legacy_bow_sparse(corpus.documents, 504)
else:
    corpus.bow_sparse()
print(hwm_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_csr_build_peak_memory_at_most_the_loop():
    root = str(Path(__file__).resolve().parents[2])
    script = _HWM_SCRIPT.format(src=SRC, root=root)

    def raise_kb(mode):
        out = subprocess.run(
            [sys.executable, "-c", script, mode],
            capture_output=True, text=True, check=True,
        )
        return int(out.stdout.strip())

    assert raise_kb("vectorised") <= raise_kb("legacy")

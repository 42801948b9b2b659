"""Vocabulary mapping semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Vocabulary
from repro.errors import VocabularyError


class TestBasics:
    def test_dense_first_seen_ids(self):
        vocab = Vocabulary(["b", "a", "b", "c"])
        assert vocab.id_of("b") == 0
        assert vocab.id_of("a") == 1
        assert vocab.id_of("c") == 2
        assert len(vocab) == 3

    def test_roundtrip(self):
        vocab = Vocabulary(["x", "y"])
        for token in vocab:
            assert vocab.token_of(vocab.id_of(token)) == token

    def test_contains(self):
        vocab = Vocabulary(["x"])
        assert "x" in vocab
        assert "y" not in vocab

    def test_known_ids_skip_unknown_tokens(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert vocab.known_ids(["c", "zz", "a", "c", "b"]) == [2, 0, 2, 1]
        assert vocab.known_ids([]) == []

    def test_add_returns_existing(self):
        vocab = Vocabulary(["x"])
        assert vocab.add("x") == 0
        assert vocab.add("y") == 1

    def test_tokens_copy(self):
        vocab = Vocabulary(["x"])
        tokens = vocab.tokens()
        tokens.append("hacked")
        assert len(vocab) == 1

    def test_equality(self):
        assert Vocabulary(["a", "b"]) == Vocabulary(["a", "b"])
        assert Vocabulary(["a"]) != Vocabulary(["b"])
        assert Vocabulary(["a"]).__eq__(42) is NotImplemented


class TestErrors:
    def test_unknown_token(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["x"]).id_of("missing")

    def test_out_of_range_id(self):
        vocab = Vocabulary(["x"])
        with pytest.raises(VocabularyError):
            vocab.token_of(5)
        with pytest.raises(VocabularyError):
            vocab.token_of(-1)

    def test_frozen_rejects_new(self):
        vocab = Vocabulary(["x"]).freeze()
        assert vocab.frozen
        with pytest.raises(VocabularyError):
            vocab.add("new")
        assert vocab.add("x") == 0  # existing still fine


class TestSubset:
    def test_preserves_order(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        sub = vocab.subset(["d", "b"])
        assert sub.tokens() == ["b", "d"]

    def test_ignores_unknown(self):
        vocab = Vocabulary(["a"])
        assert vocab.subset(["a", "zzz"]).tokens() == ["a"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=30))
def test_property_ids_are_dense_and_stable(tokens):
    """Ids form the range [0, len) and lookups are mutually inverse."""
    vocab = Vocabulary(tokens)
    ids = sorted(vocab.id_of(t) for t in set(tokens))
    assert ids == list(range(len(vocab)))
    for i in range(len(vocab)):
        assert vocab.id_of(vocab.token_of(i)) == i

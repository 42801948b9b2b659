"""Mini-batching and validation splitting."""

import numpy as np
import pytest

from repro.data import BatchIterator, train_valid_split
from repro.errors import ConfigError


class TestBatchIterator:
    def test_covers_all_documents(self, toy_corpus):
        it = BatchIterator(toy_corpus, batch_size=4, rng=np.random.default_rng(0))
        total = sum(batch.shape[0] for batch in it)
        assert total == len(toy_corpus)

    def test_batch_shapes(self, toy_corpus):
        it = BatchIterator(toy_corpus, batch_size=4, rng=np.random.default_rng(0))
        batches = list(it)
        assert batches[0].shape == (4, toy_corpus.vocab_size)
        assert batches[1].shape == (2, toy_corpus.vocab_size)

    def test_drop_last(self, toy_corpus):
        it = BatchIterator(
            toy_corpus, batch_size=4, rng=np.random.default_rng(0), drop_last=True
        )
        assert len(it) == 1
        assert sum(1 for _ in it) == 1

    def test_len(self, toy_corpus):
        assert len(BatchIterator(toy_corpus, 4, np.random.default_rng(0))) == 2
        assert len(BatchIterator(toy_corpus, 6, np.random.default_rng(0))) == 1

    def test_epochs_reshuffle(self, tiny_corpus):
        it = BatchIterator(tiny_corpus, batch_size=8, rng=np.random.default_rng(0))
        first = next(iter(it)).copy()
        second = next(iter(it)).copy()
        assert not np.array_equal(first, second)

    def test_total_counts_preserved(self, toy_corpus):
        it = BatchIterator(toy_corpus, batch_size=2, rng=np.random.default_rng(1))
        stacked = np.concatenate(list(it), axis=0)
        np.testing.assert_allclose(
            np.sort(stacked.sum(axis=1)),
            np.sort(toy_corpus.bow_matrix().sum(axis=1)),
        )

    def test_batches_follow_the_shuffled_order(self, toy_corpus):
        # A twin generator replays the iterator's one permutation per epoch.
        it = BatchIterator(toy_corpus, batch_size=3, rng=np.random.default_rng(0))
        order = np.random.default_rng(0).permutation(len(toy_corpus))
        bow = toy_corpus.bow_matrix()
        seen = []
        for start, batch in zip(range(0, len(order), 3), it):
            idx = order[start : start + 3]
            assert batch.shape[0] == idx.shape[0]
            np.testing.assert_array_equal(batch, bow[idx])
            seen.extend(idx.tolist())
        assert sorted(seen) == list(range(len(toy_corpus)))

    def test_invalid_batch_size(self, toy_corpus):
        with pytest.raises(ConfigError):
            BatchIterator(toy_corpus, 0, np.random.default_rng(0))


class TestTrainValidSplit:
    def test_partition(self, tiny_corpus):
        train, valid = train_valid_split(tiny_corpus, 0.25, np.random.default_rng(0))
        assert len(train) + len(valid) == len(tiny_corpus)
        assert len(valid) == round(len(tiny_corpus) * 0.25)

    def test_labels_preserved(self, toy_corpus):
        train, valid = train_valid_split(toy_corpus, 0.34, np.random.default_rng(0))
        assert train.labels is not None
        assert valid.labels is not None

    def test_invalid_fraction(self, toy_corpus):
        with pytest.raises(ConfigError):
            train_valid_split(toy_corpus, 0.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            train_valid_split(toy_corpus, 1.0, np.random.default_rng(0))

"""Ground-truth synthetic corpus generator."""

import numpy as np
import pytest

from repro.data import SyntheticCorpusConfig, SyntheticCorpusGenerator, THEME_BANKS
from repro.data.theme_banks import BACKGROUND_BANK
from repro.errors import ConfigError


def _config(**kwargs):
    defaults = dict(
        themes=("space", "medicine", "cooking"),
        num_documents=50,
        average_length=40.0,
        seed=3,
    )
    defaults.update(kwargs)
    return SyntheticCorpusConfig(**defaults)


class TestConfigValidation:
    def test_unknown_theme(self):
        with pytest.raises(ConfigError):
            _config(themes=("space", "nonexistent"))

    def test_empty_themes(self):
        with pytest.raises(ConfigError):
            _config(themes=())

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            _config(num_documents=0)
        with pytest.raises(ConfigError):
            _config(average_length=1.0)

    def test_bad_rates(self):
        with pytest.raises(ConfigError):
            _config(background_weight=1.0)
        with pytest.raises(ConfigError):
            _config(stopword_rate=-0.1)


class TestThemeDistributions:
    def test_rows_on_simplex(self):
        gen = SyntheticCorpusGenerator(_config())
        dists = gen.theme_word_distributions()
        assert dists.shape[0] == 3
        np.testing.assert_allclose(dists.sum(axis=1), np.ones(3), rtol=1e-12)
        assert (dists >= 0).all()

    def test_theme_mass_concentrated_on_own_bank(self):
        gen = SyntheticCorpusGenerator(_config(background_weight=0.1))
        dists = gen.theme_word_distributions()
        vocab = gen.vocabulary_words
        for k, theme in enumerate(gen.theme_names):
            bank = set(THEME_BANKS[theme])
            own_mass = sum(
                dists[k, i] for i, w in enumerate(vocab) if w in bank
            )
            assert own_mass > 0.8

    def test_vocabulary_includes_background(self):
        gen = SyntheticCorpusGenerator(_config())
        assert set(BACKGROUND_BANK) <= set(gen.vocabulary_words)


class TestGeneration:
    def test_deterministic_under_seed(self):
        a = SyntheticCorpusGenerator(_config(seed=11)).generate()
        b = SyntheticCorpusGenerator(_config(seed=11)).generate()
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_different_seed_differs(self):
        a = SyntheticCorpusGenerator(_config(seed=1)).generate()
        b = SyntheticCorpusGenerator(_config(seed=2)).generate()
        assert a[0] != b[0]

    def test_labels_in_range_and_mixtures_on_simplex(self):
        texts, labels, mixtures = SyntheticCorpusGenerator(_config()).generate()
        assert len(texts) == len(labels) == mixtures.shape[0] == 50
        assert min(labels) >= 0 and max(labels) < 3
        np.testing.assert_allclose(mixtures.sum(axis=1), np.ones(50), rtol=1e-9)

    def test_label_is_usually_dominant_theme(self):
        _, labels, mixtures = SyntheticCorpusGenerator(
            _config(num_documents=200, dominant_boost=10.0)
        ).generate()
        agree = np.mean(np.argmax(mixtures, axis=1) == np.array(labels))
        assert agree > 0.9

    def test_lengths_near_average(self):
        texts, _, _ = SyntheticCorpusGenerator(
            _config(num_documents=300, stopword_rate=0.0, noise_word_rate=0.0)
        ).generate()
        lengths = [len(t.split()) for t in texts]
        assert abs(np.mean(lengths) - 40.0) < 3.0

    def test_stopwords_injected(self):
        texts, _, _ = SyntheticCorpusGenerator(
            _config(stopword_rate=0.5)
        ).generate()
        blob = " ".join(texts).split()
        assert "the" in blob or "and" in blob

    def test_noise_words_injected(self):
        texts, _, _ = SyntheticCorpusGenerator(
            _config(noise_word_rate=0.2, num_documents=100)
        ).generate()
        assert any("noise" in t for t in texts)

    def test_documents_words_come_from_known_vocabulary(self):
        gen = SyntheticCorpusGenerator(
            _config(stopword_rate=0.0, noise_word_rate=0.0)
        )
        texts, _, _ = gen.generate()
        vocab = set(gen.vocabulary_words)
        for text in texts[:10]:
            assert set(text.split()) <= vocab


class TestBankVocabulary:
    def test_no_duplicates(self):
        gen = SyntheticCorpusGenerator(_config(themes=tuple(THEME_BANKS)))
        vocab = gen.vocabulary_words
        assert len(vocab) == len(set(vocab))

    def test_banks_are_reasonably_sized(self):
        for name, bank in THEME_BANKS.items():
            assert len(bank) >= 15, name
            assert len(set(bank)) == len(bank), f"duplicate word in {name}"

"""Theme-bank hygiene: the banks are data, so test them like data."""

import numpy as np

from repro.data.preprocessing import STOP_WORDS
from repro.data.theme_banks import BACKGROUND_BANK, THEME_BANKS


class TestBankHygiene:
    def test_no_stop_words_in_banks(self):
        """Theme words must survive preprocessing, or the generated signal
        would be silently destroyed."""
        for name, bank in THEME_BANKS.items():
            leaked = set(bank) & STOP_WORDS
            assert not leaked, f"{name} contains stop words: {leaked}"

    def test_background_not_stop_words(self):
        leaked = set(BACKGROUND_BANK) & STOP_WORDS
        assert not leaked, f"background bank contains stop words: {leaked}"

    def test_tokenizer_keeps_every_bank_word(self):
        from repro.data.preprocessing import simple_tokenize

        for name, bank in THEME_BANKS.items():
            for word in bank:
                assert simple_tokenize(word) == [word], (name, word)

    def test_dataset_profiles_have_distinctive_themes(self):
        """Every pair of themes within one profile must differ in most of
        their vocabulary — otherwise labels are unlearnable by design."""
        from repro.data.datasets import DATASET_PROFILES

        for profile in DATASET_PROFILES.values():
            for i, a in enumerate(profile.themes):
                for b in profile.themes[i + 1 :]:
                    overlap = len(set(THEME_BANKS[a]) & set(THEME_BANKS[b]))
                    smaller = min(len(THEME_BANKS[a]), len(THEME_BANKS[b]))
                    assert overlap / smaller < 0.5, (profile.name, a, b)

    def test_vocabulary_size_supports_paper_scale(self):
        # enough distinct words that K=40 topics with 25 top words each
        # could in principle be fully diverse
        assert len(set(BACKGROUND_BANK).union(*THEME_BANKS.values())) > 600

    def test_ground_truth_topics_are_npmi_coherent(self):
        """Sanity of the whole generative story: oracle topics built from
        the banks must score high NPMI on a generated corpus."""
        from repro.data import load_20ng
        from repro.metrics import compute_npmi_matrix
        from repro.metrics.coherence import topic_npmi_scores

        ds = load_20ng(scale=0.1)
        npmi = compute_npmi_matrix(ds.train)
        vocab = ds.train.vocabulary
        frequency = ds.train.word_frequency()
        oracle = []
        for theme in ds.profile.themes[:6]:
            ids = [vocab.id_of(w) for w in THEME_BANKS[theme] if w in vocab]
            if len(ids) < 10:
                continue
            row = np.zeros(ds.vocab_size)
            # weight by corpus frequency: an ideal topic emphasises the
            # bank words that actually co-occur, like the Zipf generator
            row[ids] = frequency[ids] + 1.0
            oracle.append(row / row.sum())
        scores = topic_npmi_scores(np.array(oracle), npmi)
        assert scores.mean() > 0.3

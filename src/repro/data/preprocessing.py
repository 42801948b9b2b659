"""Real-text preprocessing pipeline (paper §V.A).

The paper preprocesses each corpus by "tokenizing, filtering out stop words,
words with document frequency above 70%, and words appearing in less than
around 100 documents (depending on the dataset).  Then we remove the
documents shorter than two words."  This module implements exactly that
pipeline over raw text documents and produces a :class:`~repro.data.corpus.Corpus`.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.data.corpus import Corpus
from repro.data.vocabulary import Vocabulary
from repro.errors import ConfigError, CorpusError

# A compact English stop-word list (the usual suspects from the SMART list).
STOP_WORDS: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by cannot could did do does doing
    down during each few for from further had has have having he her here hers
    herself him himself his how i if in into is it its itself me more most my
    myself no nor not of off on once only or other ought our ours ourselves
    out over own same she should so some such than that the their theirs them
    themselves then there these they this those through to too under until up
    very was we were what when where which while who whom why with would you
    your yours yourself yourselves will just can get got also one two may
    much many us said says like went going go come came
    """.split()
)

_TOKEN_PATTERN = re.compile(r"[a-z][a-z0-9_']+")


def simple_tokenize(text: str) -> list[str]:
    """Lower-case and extract alphabetic tokens of length >= 2."""
    return _TOKEN_PATTERN.findall(text.lower())


@dataclass
class PreprocessConfig:
    """Knobs for the Table-I preprocessing pipeline.

    ``max_doc_frequency`` is a fraction of documents (paper: 0.7);
    ``min_doc_count`` is an absolute document count (paper: "around 100",
    scaled down with our corpora); ``min_doc_length`` removes documents
    shorter than that many kept tokens (paper: 2).
    """

    max_doc_frequency: float = 0.7
    min_doc_count: int = 3
    min_doc_length: int = 2
    stop_words: frozenset[str] = field(default_factory=lambda: STOP_WORDS)
    max_vocab_size: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.max_doc_frequency <= 1.0:
            raise ConfigError("max_doc_frequency must be in (0, 1]")
        if self.min_doc_count < 1:
            raise ConfigError("min_doc_count must be >= 1")
        if self.min_doc_length < 1:
            raise ConfigError("min_doc_length must be >= 1")


class Preprocessor:
    """Fit a vocabulary on training text and index train/test consistently.

    Usage::

        pre = Preprocessor(PreprocessConfig(min_doc_count=5))
        train = pre.fit_transform(train_texts, labels=train_labels)
        test = pre.transform(test_texts, labels=test_labels)
    """

    def __init__(self, config: PreprocessConfig | None = None):
        self.config = config or PreprocessConfig()
        self.vocabulary: Vocabulary | None = None

    # ------------------------------------------------------------------
    def fit(self, texts: Sequence[str]) -> "Preprocessor":
        """Build the vocabulary from raw training texts."""
        if not texts:
            raise CorpusError("cannot fit a preprocessor on an empty text list")
        cfg = self.config
        doc_freq: Counter[str] = Counter()
        total_freq: Counter[str] = Counter()
        n_docs = len(texts)
        for text in texts:
            tokens = [t for t in simple_tokenize(text) if t not in cfg.stop_words]
            doc_freq.update(set(tokens))
            total_freq.update(tokens)

        max_df = cfg.max_doc_frequency * n_docs
        kept = [
            token
            for token, df in doc_freq.items()
            if cfg.min_doc_count <= df <= max_df
        ]
        # Order by descending corpus frequency (stable & interpretable ids).
        kept.sort(key=lambda t: (-total_freq[t], t))
        if cfg.max_vocab_size is not None:
            kept = kept[: cfg.max_vocab_size]
        if not kept:
            raise CorpusError(
                "preprocessing removed every token; relax the frequency filters"
            )
        self.vocabulary = Vocabulary(kept).freeze()
        return self

    def transform(
        self,
        texts: Sequence[str],
        labels: Sequence[int] | None = None,
        label_names: Sequence[str] | None = None,
    ) -> Corpus:
        """Index raw texts against the fitted vocabulary.

        Documents that end up shorter than ``min_doc_length`` are dropped
        (and so are their labels), per the paper.
        """
        if self.vocabulary is None:
            raise CorpusError("Preprocessor.transform called before fit")
        vocab = self.vocabulary
        documents: list[list[int]] = []
        kept_labels: list[int] = []
        for i, text in enumerate(texts):
            ids = vocab.known_ids(simple_tokenize(text))
            if len(ids) < self.config.min_doc_length:
                continue
            documents.append(ids)
            if labels is not None:
                kept_labels.append(int(labels[i]))
        if not documents:
            raise CorpusError("all documents were filtered out")
        return Corpus(
            documents,
            vocab,
            labels=kept_labels if labels is not None else None,
            label_names=label_names,
        )

    def fit_transform(
        self,
        texts: Sequence[str],
        labels: Sequence[int] | None = None,
        label_names: Sequence[str] | None = None,
    ) -> Corpus:
        """Fit the vocabulary and transform in one step."""
        return self.fit(texts).transform(texts, labels=labels, label_names=label_names)

"""Real-text preprocessing pipeline (paper §V.A).

The paper preprocesses each corpus by "tokenizing, filtering out stop words,
words with document frequency above 70%, and words appearing in less than
around 100 documents (depending on the dataset).  Then we remove the
documents shorter than two words."  This module implements exactly that
pipeline over raw text documents and produces a :class:`~repro.data.corpus.Corpus`.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
        self._fit(texts)
        return self

    def _fit(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Build the vocabulary; return each text's vocabulary ids.

        The one tokenizing pass gives every distinct token a provisional
        int id on first sight and records each text's tokens as ids, so
        no text's token strings outlive its step; frequencies are counted
        over the ids.  Once the vocabulary is known the ids are remapped
        to it and the tokens outside it dropped, which equals
        :meth:`transform`'s lookup.
        """
        if not texts:
            raise CorpusError("cannot fit a preprocessor on an empty text list")
        cfg = self.config
        provisional: dict[str, int] = {}
        ids, distinct_ids = array("i"), array("i")
        sizes = np.zeros(len(texts), dtype=np.int64)
        for i, text in enumerate(texts):
            tokens = simple_tokenize(text)
            distinct = set(tokens)
            new = [t for t in distinct if t not in provisional]
            provisional.update(zip(new, range(len(provisional), len(provisional) + len(new))))
            ids.extend(map(provisional.__getitem__, tokens))
            distinct_ids.extend(map(provisional.__getitem__, distinct))
            sizes[i] = len(tokens)
        total_freq = np.bincount(ids, minlength=len(provisional)).tolist()
        doc_freq = np.bincount(distinct_ids, minlength=len(provisional)).tolist()

        max_df = cfg.max_doc_frequency * len(texts)
        kept = [
            token
            for token, df in zip(provisional, doc_freq)
            if cfg.min_doc_count <= df <= max_df and token not in cfg.stop_words
        ]
        # Order by descending corpus frequency (stable & interpretable ids).
        kept.sort(key=lambda t: (-total_freq[provisional[t]], t))
        if cfg.max_vocab_size is not None:
            kept = kept[: cfg.max_vocab_size]
        if not kept:
            raise CorpusError(
                "preprocessing removed every token; relax the frequency filters"
            )
        self.vocabulary = Vocabulary(kept).freeze()

        vocab_ids = np.full(len(provisional), -1, dtype=np.int32)
        vocab_ids[[provisional[token] for token in kept]] = np.arange(len(kept))
        mapped = vocab_ids[np.frombuffer(ids, dtype=np.intc)]
        del ids, distinct_ids
        known = mapped >= 0
        # Kept tokens per text.  reduceat sums known[start:next start] but
        # gives known[start] for an empty text and rejects a start at the
        # end, so it runs over the non-empty texts' starts only.
        nonempty = sizes > 0
        kept_sizes = np.zeros(len(texts), dtype=np.int64)
        kept_sizes[nonempty] = np.add.reduceat(
            known, (np.cumsum(sizes) - sizes)[nonempty], dtype=np.int64
        )
        # int64 like Corpus's documents, which then wrap the views uncopied.
        tokens = mapped[known].astype(np.int64)
        del mapped, known
        return np.split(tokens, np.cumsum(kept_sizes)[:-1])

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
        known_ids = self.vocabulary.known_ids
        documents = [known_ids(simple_tokenize(text)) for text in texts]
        return self._corpus(documents, labels, label_names)

    def fit_transform(
        self,
        texts: Sequence[str],
        labels: Sequence[int] | None = None,
        label_names: Sequence[str] | None = None,
    ) -> Corpus:
        """Fit the vocabulary and transform in one step.

        Equal to ``fit(texts).transform(texts, ...)``, but tokenizes each
        text once.
        """
        return self._corpus(self._fit(texts), labels, label_names)

    def _corpus(
        self,
        documents: Sequence[Sequence[int]],
        labels: Sequence[int] | None,
        label_names: Sequence[str] | None,
    ) -> Corpus:
        """The corpus of the documents at least ``min_doc_length`` long."""
        keep = [
            i for i, doc in enumerate(documents)
            if len(doc) >= self.config.min_doc_length
        ]
        if not keep:
            raise CorpusError("all documents were filtered out")
        return Corpus(
            [documents[i] for i in keep],
            self.vocabulary,
            labels=[int(labels[i]) for i in keep] if labels is not None else None,
            label_names=label_names,
        )

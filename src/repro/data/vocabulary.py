"""Bidirectional token <-> id mapping with optional freezing."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import VocabularyError


class Vocabulary:
    """An ordered, bidirectional mapping between tokens and integer ids.

    Ids are assigned densely in first-seen order.  A vocabulary can be
    *frozen*, after which looking up an unknown token raises
    :class:`~repro.errors.VocabularyError` instead of allocating a new id —
    this is how test corpora are indexed against a training vocabulary.
    """

    def __init__(self, tokens: Iterable[str] = ()):
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        self._frozen = False
        for token in tokens:
            self.add(token)

    # ------------------------------------------------------------------
    def add(self, token: str) -> int:
        """Return the id of ``token``, allocating one if needed."""
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        if self._frozen:
            raise VocabularyError(f"vocabulary is frozen; unknown token {token!r}")
        new_id = len(self._id_to_token)
        self._token_to_id[token] = new_id
        self._id_to_token.append(token)
        return new_id

    def freeze(self) -> "Vocabulary":
        """Disallow further token additions; returns self for chaining."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------
    def id_of(self, token: str) -> int:
        """Id of a known token; raises :class:`VocabularyError` if absent."""
        try:
            return self._token_to_id[token]
        except KeyError:
            raise VocabularyError(f"unknown token {token!r}") from None

    def known_ids(self, tokens: Iterable[str]) -> list[int]:
        """Ids of the known ``tokens`` in order; unknown tokens are skipped."""
        lookup = self._token_to_id.get
        return [i for i in map(lookup, tokens) if i is not None]

    def token_of(self, token_id: int) -> str:
        """Token string for a known id."""
        if not 0 <= token_id < len(self._id_to_token):
            raise VocabularyError(f"token id {token_id} out of range")
        return self._id_to_token[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    def tokens(self) -> list[str]:
        """All tokens in id order (a copy)."""
        return list(self._id_to_token)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._id_to_token == other._id_to_token

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "open"
        return f"Vocabulary(size={len(self)}, {state})"

    # ------------------------------------------------------------------
    def subset(self, keep_tokens: Iterable[str]) -> "Vocabulary":
        """New vocabulary containing only ``keep_tokens`` (original order)."""
        keep = set(keep_tokens)
        return Vocabulary(t for t in self._id_to_token if t in keep)

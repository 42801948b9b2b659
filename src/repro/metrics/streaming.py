"""Incremental co-occurrence/NPMI engine for streaming corpora.

The paper precomputes its similarity kernel K(·) — the dense V×V NPMI
matrix — once, on a static training corpus (§IV.A), and itself flags the
O(V²) cost of keeping that matrix around (§V.E).  In the streaming
setting (documents arrive in time slices; see
:mod:`repro.extensions.online`) a from-scratch rebuild per slice pays

* O(nnz_total·V) to recount document co-occurrence over *every*
  document seen so far, and
* a fresh O(V²) NPMI derivation allocating several V×V temporaries.

:class:`StreamingNpmiEngine` makes kernel maintenance incremental and
exact instead:

* :meth:`~repro.metrics.cooccurrence.DocumentCooccurrence.update` adds
  only the new documents' binary-slice product — O(nnz_new·V), one
  sparse product densified and added in with no sort or scatter — into
  the existing joint/df/D counts, **bitwise equal** to a full recount
  (integer counts are exact in float64);
* :meth:`~repro.metrics.npmi.NpmiMatrix.rederive_into` rebuilds the
  NPMI matrix in place through one persistent
  :class:`~repro.metrics.npmi.NpmiWorkspace`, so the per-slice cost is
  pure arithmetic with zero V×V allocations, and the result matches a
  cold :func:`~repro.metrics.npmi.compute_npmi_matrix` to the last bit
  (same derivation kernel).

Each engine counts its own activity in :attr:`StreamingNpmiEngine.stats`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.metrics.cooccurrence import DocumentCooccurrence
from repro.metrics.npmi import NpmiMatrix, NpmiWorkspace


class StreamingNpmiEngine:
    """Exact delta-update maintenance of co-occurrence counts and NPMI.

    One engine owns three persistent pieces of state over a fixed
    vocabulary: a mutable :class:`DocumentCooccurrence` (the cumulative
    counts), an :class:`NpmiMatrix` whose ``matrix`` is the reused V×V
    output buffer, and an :class:`NpmiWorkspace` of scratch buffers.
    Feeding a slice through :meth:`update` costs O(nnz_new·V) counting
    plus one allocation-free O(V²) rederivation; after any schedule of
    slices the counts equal a full recount bitwise and the NPMI equals a
    cold build exactly.

    The engine's :attr:`npmi` is a *live* view — it is rederived in
    place, so long-lived consumers (e.g. a
    :class:`~repro.core.similarity.SimilarityKernel` refreshed per
    slice) can hold onto it across updates.
    """

    def __init__(
        self,
        vocab_size: int,
        epsilon: float = 1e-12,
        never_cooccur_value: float = -1.0,
    ):
        self.cooccurrence = DocumentCooccurrence.empty(vocab_size)
        self.npmi = NpmiMatrix(np.zeros((vocab_size, vocab_size)))
        self.epsilon = epsilon
        self.never_cooccur_value = never_cooccur_value
        self._workspace = NpmiWorkspace(vocab_size)
        self.stats = {
            "updates": 0,
            "documents": 0,
            "delta_nnz": 0,
            "buffer_reuses": 0,
        }

    @property
    def vocab_size(self) -> int:
        return self.cooccurrence.vocab_size

    @property
    def num_documents(self) -> int:
        return self.cooccurrence.num_documents

    def update(self, new_docs) -> NpmiMatrix:
        """Fold one slice in and rederive the NPMI matrix in place.

        ``new_docs`` accepts everything
        :meth:`DocumentCooccurrence.update` does — a corpus, a (possibly
        empty) sequence of token-id documents, or a ``(docs, vocab)``
        count matrix.  Returns the engine's live :attr:`npmi` (zeros
        until the first non-empty slice arrives).
        """
        before = self.cooccurrence.num_documents
        delta_nnz = self.cooccurrence.update(new_docs)
        added = self.cooccurrence.num_documents - before
        reused = self.stats["updates"] > 0
        if self.cooccurrence.num_documents > 0:
            self.npmi.rederive_into(
                self.cooccurrence,
                workspace=self._workspace,
                epsilon=self.epsilon,
                never_cooccur_value=self.never_cooccur_value,
            )
        self.stats["updates"] += 1
        self.stats["documents"] += added
        self.stats["delta_nnz"] += delta_nnz
        self.stats["buffer_reuses"] += int(reused)
        return self.npmi

    def check_against(self, full: DocumentCooccurrence) -> None:
        """Assert bitwise count equality against a full recount.

        Raises :class:`~repro.errors.ShapeError` on any mismatch — used
        by the benchmark to enforce the exactness contract outside the
        test suite too.
        """
        if full.vocab_size != self.vocab_size:
            raise ShapeError(
                f"recount vocab {full.vocab_size} != engine vocab "
                f"{self.vocab_size}"
            )
        if (
            full.num_documents != self.num_documents
            or not np.array_equal(full.doc_freq, self.cooccurrence.doc_freq)
            or not np.array_equal(full.joint, self.cooccurrence.joint)
        ):
            raise ShapeError(
                "incremental counts diverged from the full recount"
            )

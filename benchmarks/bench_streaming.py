"""Incremental co-occurrence/NPMI engine vs per-slice full recount.

The online trainer (:mod:`repro.extensions.online`) maintains its
similarity kernel over a growing corpus.  Before PR 9 every slice paid a
from-scratch rebuild — recount document co-occurrence over *all* documents
seen so far, then a fresh O(V²) NPMI derivation with its temporaries.
:class:`repro.metrics.streaming.StreamingNpmiEngine` replaces that with an
exact delta update: O(nnz_new·V) counting on the new slice only plus one
allocation-free in-place rederivation.

The ``streaming`` suite of :mod:`repro.experiments.suites` replays the
same 20-slice synthetic drift profile
(:func:`repro.extensions.online.generate_drifting_stream` — theme
popularity drifts and a new theme emerges mid-stream) through two legs:

* ``streaming/update``  — the incremental engine folding each slice in;
* ``streaming/recount`` — the pre-PR-9 behaviour: per slice, recount all
  documents seen so far from scratch and derive NPMI cold.

The suite checks exactness: after the full schedule the incremental
counts equal the final recount bitwise and the in-place NPMI matches a
cold build to <= 1e-12 (in practice bitwise: both paths share one
derivation kernel).  This bench adds the speed contract: the
incremental leg is >= 5x faster over the 20-slice profile.  The ratio is
algorithmic (recounting replays every past document, the delta touches
only new ones), so it holds at smoke scale too.

``benchmarks/check_regression.py`` gates the report's
``streaming_update_seconds``, ``streaming_speedup``,
``streaming_docs_per_sec`` and ``streaming_buffer_reuses`` totals against
``benchmarks/baselines/BENCH_streaming.json``.
"""

from __future__ import annotations

from benchmarks.conftest import STRICT
from repro.experiments.suites import SuiteSettings

NUM_SLICES = 20

#: Minimum incremental-vs-recount speedup over the 20-slice profile.  The
#: counting work ratio alone is ~(S+1)/2 = 10.5x; 5x leaves headroom for
#: the per-slice rederivation both legs pay.
MIN_SPEEDUP = 5.0


def test_streaming_vs_recount(run_suite):
    settings = SuiteSettings(
        stream_slices=NUM_SLICES, stream_docs=250 if STRICT else 80, seed=7
    )
    speedup = run_suite("streaming", settings)["totals"]["streaming_speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"incremental engine only {speedup:.2f}x faster than per-slice "
        f"recount over {NUM_SLICES} slices (target {MIN_SPEEDUP}x)"
    )

"""Trend detection with online ContraTopic (the paper's §VI future work).

A document stream arrives in time slices; partway through, a new theme
(professional wrestling) starts appearing.  The online model consumes one
slice at a time — warm-starting from the previous slice and exponentially
decaying its NPMI kernel — and flags the topics that re-specialized, which
is exactly where the new theme lands.

    python examples/online_trends.py
"""

from __future__ import annotations

from repro.core import ContraTopicConfig
from repro.embeddings import build_embeddings
from repro.extensions import (
    DriftingStreamConfig,
    OnlineConfig,
    OnlineContraTopic,
    generate_drifting_stream,
)
from repro.models import ETM, NTMConfig


def main() -> None:
    print("Generating a drifting stream (wrestling emerges at slice 2)...")
    slices, _, union = generate_drifting_stream(
        DriftingStreamConfig(
            base_themes=("space", "medicine", "finance", "cooking"),
            emerging_themes=("wrestling",),
            emerge_at=2,
            num_slices=4,
            docs_per_slice=400,
            seed=3,
        )
    )
    vocab_size = slices[0].vocab_size
    print(f"  {len(slices)} slices, shared vocabulary of {vocab_size} words")

    # Train embeddings on the balanced union sample so emerging-theme
    # words have usable vectors before the theme appears in the stream.
    embeddings = build_embeddings(union, dim=40)

    def backbone_factory() -> ETM:
        return ETM(
            vocab_size,
            NTMConfig(num_topics=10, hidden_sizes=(48,), epochs=25, batch_size=128),
            embeddings.vectors,
        )

    online = OnlineContraTopic(
        backbone_factory,
        ContraTopicConfig(lambda_weight=40.0, negative_weight=3.0),
        OnlineConfig(kernel_decay=0.6, epochs_per_slice=12),
    )

    for t, corpus in enumerate(slices):
        result = online.partial_fit(corpus)
        moved = online.emerging_topics(threshold=0.25)
        print(f"\nslice {t}: mean topic drift = {result.mean_drift:.3f}; "
              f"re-specialized topics: {moved or 'none'}")
        for k in moved:
            print(f"  topic {k} now: {' '.join(result.top_words[k][:8])}")

    print("\nFinal topics:")
    for k, words in enumerate(online.history[-1].top_words):
        print(f"  topic {k}: {' '.join(words[:8])}")


if __name__ == "__main__":
    main()

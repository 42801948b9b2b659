"""ContraTopic: the paper's primary contribution.

* :mod:`repro.core.subset_sampling` — the relaxed Gumbel top-k sampler
  (Eqs. 3-5; Xie & Ermon 2019) that draws v words per topic without
  replacement, differentiably.
* :mod:`repro.core.similarity` — the similarity kernels K(·): pre-computed
  corpus NPMI (the paper's choice) or word-embedding inner product (the
  ContraTopic-I ablation).
* :mod:`repro.core.contrastive` — the topic-wise supervised-contrastive
  loss (Eq. 2) over relaxed word samples.
* :mod:`repro.core.contratopic` — the full model: any NTM backbone +
  λ·L_con (Eq. 6), trained per Algorithm 1.
* :mod:`repro.core.variants` — the Table-II ablation variants
  (-P, -N, -I, -S).
"""

from repro.core.subset_sampling import (
    relaxed_topk_sample,
    sample_gumbel,
)
from repro.core.similarity import npmi_kernel, embedding_kernel, SimilarityKernel
from repro.core.contrastive import topic_contrastive_loss, ContrastiveMode
from repro.core.contratopic import ContraTopic, ContraTopicConfig
from repro.core.variants import build_variant, VARIANT_NAMES

__all__ = [
    "relaxed_topk_sample",
    "sample_gumbel",
    "npmi_kernel",
    "embedding_kernel",
    "SimilarityKernel",
    "topic_contrastive_loss",
    "ContrastiveMode",
    "ContraTopic",
    "ContraTopicConfig",
    "build_variant",
    "VARIANT_NAMES",
]

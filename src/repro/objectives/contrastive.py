"""The paper's topic-wise contrastive regularizer as a pluggable objective.

This is λ·L_con of Eq. 6 extracted from :class:`repro.core.contratopic.
ContraTopic` onto the :class:`~repro.objectives.base.Objective` protocol:
per batch, draw a relaxed v-word subset from every topic's β_k via Gumbel
top-k (:mod:`repro.core.subset_sampling`), then evaluate the contrastive
loss under a precomputed similarity kernel
(:func:`repro.core.contrastive.topic_contrastive_loss`).

ContraTopic itself now *owns an instance of this class* and delegates its
``contrastive_samples``/``contrastive_loss`` methods here, so the model
and the standalone spec (``--objective contrastive`` on any backbone)
share one implementation — and train bitwise-identically for the same
seed, because both draw Gumbel noise from a ``default_rng(seed + 7)``
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

# The kernels are called through their modules, so the attribute swaps of
# repro.telemetry.ophooks.profile_ops see every call.
from repro.core import contrastive as kernel_loss
from repro.core import subset_sampling
from repro.core.contrastive import ContrastiveMode
from repro.core.similarity import SimilarityKernel, npmi_kernel
from repro.errors import ConfigError
from repro.objectives.base import BatchContext, Objective

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.data.corpus import Corpus
    from repro.tensor.tensor import Tensor

#: Offset of the Gumbel stream from the model seed — the same convention
#: ContraTopic has always used, so spec-built and class-built runs match.
GUMBEL_SEED_OFFSET = 7


@dataclass
class TopicContrastiveParams:
    """Sampler/loss knobs when the objective is built standalone.

    Mirrors the regularizer fields of
    :class:`repro.core.contratopic.ContraTopicConfig` (which duck-types as
    this — ContraTopic passes its config object straight through so
    post-construction mutations, e.g. the ContraTopic-S ablation flipping
    ``use_sampling``, are seen live).
    """

    num_sampled_words: int = 10
    gumbel_temperature: float = 0.5
    mode: ContrastiveMode = ContrastiveMode.FULL
    use_sampling: bool = True
    negative_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.num_sampled_words < 1:
            raise ConfigError("num_sampled_words must be >= 1")
        if self.gumbel_temperature <= 0:
            raise ConfigError("gumbel_temperature must be positive")
        if self.negative_weight <= 0:
            raise ConfigError("negative_weight must be positive")


class TopicContrastiveObjective(Objective):
    """Topic-wise contrastive term: Gumbel top-k subsets under a kernel.

    Parameters
    ----------
    kernel:
        Precomputed similarity kernel; ``None`` defers to :meth:`prepare`,
        which builds an NPMI kernel from the training corpus (the paper's
        main configuration).
    config:
        A :class:`TopicContrastiveParams`-shaped object; ContraTopic
        passes its own ``ContraTopicConfig`` so both stay one source of
        truth.
    rng:
        The Gumbel noise stream.  ContraTopic shares its ``_rng`` here;
        standalone builds leave it ``None`` and :meth:`prepare` seeds
        ``default_rng(model.config.seed + GUMBEL_SEED_OFFSET)``.
    kernel_temperature:
        NPMI-kernel temperature used only when :meth:`prepare` builds the
        kernel itself.
    """

    name = "contrastive"

    def __init__(
        self,
        kernel: SimilarityKernel | None = None,
        config=None,
        rng: np.random.Generator | None = None,
        kernel_temperature: float = 0.25,
        mode: "ContrastiveMode | str" = ContrastiveMode.FULL,
        num_sampled_words: int = 10,
        gumbel_temperature: float = 0.5,
        use_sampling: bool = True,
        negative_weight: float = 1.0,
    ):
        if isinstance(mode, str):
            mode = ContrastiveMode(mode)
        self.kernel = kernel
        self.config = (
            config
            if config is not None
            else TopicContrastiveParams(
                num_sampled_words=num_sampled_words,
                gumbel_temperature=gumbel_temperature,
                mode=mode,
                use_sampling=use_sampling,
                negative_weight=negative_weight,
            )
        )
        self.rng = rng
        if kernel_temperature <= 0:
            raise ConfigError("kernel_temperature must be positive")
        self.kernel_temperature = kernel_temperature

    # ------------------------------------------------------------------
    def prepare(self, model, corpus: "Corpus") -> None:
        """Build the NPMI kernel / seed the Gumbel stream if not injected."""
        if self.kernel is None:
            from repro.metrics.npmi import compute_npmi_matrix

            self.kernel = npmi_kernel(
                compute_npmi_matrix(corpus), temperature=self.kernel_temperature
            )
        if self.rng is None:
            self.rng = np.random.default_rng(
                model.config.seed + GUMBEL_SEED_OFFSET
            )

    # ------------------------------------------------------------------
    def samples(self, beta: "Tensor") -> "Tensor":
        """Relaxed v-hot samples per topic (or v·β for ContraTopic-S)."""
        cfg = self.config
        if not cfg.use_sampling:
            # ContraTopic-S: "leverage the weight sum operation of
            # topic-word distribution as an expectation".
            return beta * float(cfg.num_sampled_words)
        if self.rng is None:
            raise ConfigError(
                "TopicContrastiveObjective has no RNG stream yet; call "
                "prepare() (fit does) or pass rng= at construction"
            )
        log_beta = (beta + 1e-12).log()
        noise = subset_sampling.sample_gumbel(beta.shape, self.rng)
        return subset_sampling.relaxed_topk_sample(
            log_beta,
            cfg.num_sampled_words,
            cfg.gumbel_temperature,
            gumbel_noise=noise,
        )

    def loss(self, beta: "Tensor") -> "Tensor":
        if self.kernel is None:
            raise ConfigError(
                "TopicContrastiveObjective has no similarity kernel yet; "
                "call prepare() (fit does) or pass kernel= at construction"
            )
        return kernel_loss.topic_contrastive_loss(
            self.samples(beta),
            self.kernel,
            mode=self.config.mode,
            negative_weight=self.config.negative_weight,
        )

    def term_on_batch(self, model, batch, ctx: BatchContext):
        return self.loss(ctx.beta), {}

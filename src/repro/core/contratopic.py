"""The full ContraTopic model: backbone NTM + λ·L_con (Eq. 6, Algorithm 1).

ContraTopic wraps *any* :class:`~repro.models.base.NeuralTopicModel`
backbone (ETM in the paper's main results; WLDA and WeTe in the §V.I
backbone-substitution study) and adds the topic-wise contrastive
regularizer: per training batch it draws a relaxed v-word subset from every
topic's β_k via Gumbel top-k, evaluates the contrastive loss under the
precomputed similarity kernel, and adds λ·L_con to the backbone's ELBO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.contrastive import ContrastiveMode
from repro.core.similarity import SimilarityKernel
from repro.errors import ConfigError, ShapeError
from repro.models.base import NeuralTopicModel
from repro.nn.module import Module
from repro.tensor.tensor import Tensor


@dataclass
class ContraTopicConfig:
    """Regularizer hyper-parameters (paper §V.D defaults where applicable).

    Parameters
    ----------
    lambda_weight:
        λ of Eq. 6 (paper: 40 / 40 / 300 on 20NG / Yahoo / NYTimes).
    num_sampled_words:
        v — words sampled per topic (paper: 10).
    gumbel_temperature:
        τ_g of the relaxed sampler (paper: 0.5).
    mode:
        FULL, or the -P / -N ablation modes.
    use_sampling:
        True uses the Gumbel subset sampler; False is the ContraTopic-S
        ablation, which feeds the expectation v·β directly into L_con.
    negative_weight:
        Balance multiplier on negative-pair mass (§IV.B's optional
        balancing hyper-parameter); 1.0 recovers the plain Eq. 2.
    """

    lambda_weight: float = 40.0
    num_sampled_words: int = 10
    gumbel_temperature: float = 0.5
    mode: ContrastiveMode = ContrastiveMode.FULL
    use_sampling: bool = True
    negative_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.lambda_weight < 0:
            raise ConfigError("lambda_weight must be non-negative")
        if self.num_sampled_words < 1:
            raise ConfigError("num_sampled_words must be >= 1")
        if self.gumbel_temperature <= 0:
            raise ConfigError("gumbel_temperature must be positive")
        if self.negative_weight <= 0:
            raise ConfigError("negative_weight must be positive")


class ContraTopic(NeuralTopicModel):
    """Backbone NTM + topic-wise contrastive regularizer.

    Parameters
    ----------
    backbone:
        Any constructed (unfitted) neural topic model; its encoder, decoder
        and losses are reused unchanged — ContraTopic only adds λ·L_con,
        exactly as the paper's "we keep the shared hyper-parameters
        unchanged" protocol requires.
    kernel:
        Precomputed similarity kernel (NPMI from the *training* corpus in
        the paper's main configuration).
    config:
        Regularizer settings.
    """

    def __init__(
        self,
        backbone: NeuralTopicModel,
        kernel: SimilarityKernel,
        config: ContraTopicConfig | None = None,
    ):
        regularizer_config = config or ContraTopicConfig()
        if kernel.vocab_size != backbone.vocab_size:
            raise ShapeError(
                f"kernel vocab {kernel.vocab_size} != backbone vocab "
                f"{backbone.vocab_size}"
            )
        # Deliberately skip NeuralTopicModel.__init__: the backbone already
        # owns the encoder; building a second one would waste parameters
        # and diverge from the paper's "same hyper-parameters" setup.
        Module.__init__(self)
        self.vocab_size = backbone.vocab_size
        self.config = backbone.config
        self.regularizer = regularizer_config
        self.kernel = kernel
        self.backbone = backbone
        self.encoder = backbone.encoder
        self._rng = np.random.default_rng(backbone.config.seed + 7)
        # Imported lazily: repro.objectives.contrastive imports this
        # package's loss kernels, so a module-level import would cycle
        # through repro.core.__init__.
        from repro.objectives.contrastive import TopicContrastiveObjective

        # The regularizer math lives in the shared objective; passing the
        # config *object* (not copies of its fields) keeps ablations that
        # mutate it post-construction (e.g. ContraTopic-S flipping
        # use_sampling) visible, and sharing self._rng keeps the Gumbel
        # stream identical to the historical inline implementation.
        self._contrastive = TopicContrastiveObjective(
            kernel=kernel, config=regularizer_config, rng=self._rng
        )
        self._fitted = False
        self.history = []

    # ------------------------------------------------------------------
    # delegate the generative pieces to the backbone
    # ------------------------------------------------------------------
    def beta(self) -> Tensor:
        return self.backbone.beta()

    def encode_theta(self, bow: np.ndarray, sample: bool = True):
        return self.backbone.encode_theta(bow, sample=sample)

    def reconstruction_loss(self, theta: Tensor, beta: Tensor, bow: np.ndarray) -> Tensor:
        return self.backbone.reconstruction_loss(theta, beta, bow)

    def kl_loss(self, mu: Tensor, logvar: Tensor, theta: Tensor) -> Tensor:
        return self.backbone.kl_loss(mu, logvar, theta)

    def on_fit_start(self, corpus) -> None:
        super().on_fit_start(corpus)  # prepares the objective stack
        self.backbone.on_fit_start(corpus)

    def rng_streams(self) -> dict:
        # Resume support: the backbone's stream drives dropout/epsilon
        # noise (encode_theta delegates there) while self._rng drives the
        # Gumbel subset sampling — both must travel in checkpoints.
        return {"model": self._rng, "backbone": self.backbone._rng}

    # ------------------------------------------------------------------
    # the contribution: λ·L_con (delegated to the shared objective)
    # ------------------------------------------------------------------
    def build_objectives(self):
        """ELBO + one named ``contrastive`` term weighted by λ.

        This is what makes ContraTopic a thin facade over the objective
        pipeline: the guard degrades (and telemetry reports) the
        contrastive term by name, and the identical term is available
        standalone via ``ObjectiveSpec("contrastive")`` on any backbone.
        """
        from repro.objectives.base import ObjectiveTerm

        stack = super().build_objectives()
        stack.terms.append(
            ObjectiveTerm(
                "contrastive",
                self._contrastive,
                weight=self.regularizer.lambda_weight,
            )
        )
        return stack

    def contrastive_samples(self, beta: Tensor) -> Tensor:
        """Relaxed v-hot samples per topic (or v·β for ContraTopic-S)."""
        return self._contrastive.samples(beta)

    def contrastive_loss(self, beta: Tensor) -> Tensor:
        return self._contrastive.loss(beta)

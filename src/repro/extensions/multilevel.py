"""Multi-level contrastive learning: topic-wise + document-wise, unified.

The paper's §VI: "Subsequent research can explore a unified multi-level
contrastive learning framework that incorporates both topic-wise and
document-wise approaches, aiming to enhance both topic interpretability
and document representation."

This extension combines ContraTopic's topic-wise L_con with a CLNTM-style
document-wise InfoNCE over tf-idf-salient views of each document:

    L = L_rec + L_kl + λ_topic · L_topic + λ_doc · L_doc
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.contratopic import ContraTopic, ContraTopicConfig
from repro.core.similarity import SimilarityKernel
from repro.errors import ConfigError
from repro.models.base import NeuralTopicModel
from repro.objectives.clntm import DocumentContrastiveObjective


@dataclass
class MultiLevelConfig:
    """Weights and view construction of the document-wise level."""

    lambda_document: float = 1.0
    salient_fraction: float = 0.25
    infonce_temperature: float = 0.5

    def __post_init__(self) -> None:
        if self.lambda_document < 0:
            raise ConfigError("lambda_document must be non-negative")
        if not 0.0 < self.salient_fraction < 1.0:
            raise ConfigError("salient_fraction must be in (0, 1)")
        if self.infonce_temperature <= 0:
            raise ConfigError("infonce_temperature must be positive")


class MultiLevelContraTopic(ContraTopic):
    """ContraTopic + document-wise InfoNCE on the encoder's θ.

    The topic-wise level is inherited unchanged; the document level builds
    a positive view (tf-idf-salient words kept) and a negative view
    (salient words deleted) of every batch document and applies InfoNCE on
    L2-normalized θ vectors, exactly as the CLNTM baseline — except here
    both levels act together, which is the §VI proposal.
    """

    def __init__(
        self,
        backbone: NeuralTopicModel,
        kernel: SimilarityKernel,
        topic_config: ContraTopicConfig | None = None,
        multilevel_config: MultiLevelConfig | None = None,
    ):
        super().__init__(backbone, kernel, topic_config)
        self.multilevel = multilevel_config or MultiLevelConfig()
        # The document level *is* the CLNTM objective — one implementation
        # shared with repro.models.clntm and ObjectiveSpec("clntm").
        self._document = DocumentContrastiveObjective(
            salient_fraction=self.multilevel.salient_fraction,
            temperature=self.multilevel.infonce_temperature,
        )

    def build_objectives(self):
        """ELBO + the two named levels: λ·L_topic and λ_doc·L_doc.

        Declaring both as separate terms lets the guard shed the document
        level first (reverse stack order) before falling back to
        ELBO-only, and telemetry reports each level's contribution.
        """
        from repro.objectives.base import ObjectiveTerm

        stack = super().build_objectives()
        stack.terms.append(
            ObjectiveTerm(
                "document",
                self._document,
                weight=self.multilevel.lambda_document,
            )
        )
        return stack

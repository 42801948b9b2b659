"""Composable training objectives: a base ELBO term plus named regularizers.

The paper's comparative claim — topic-wise contrastive learning beats rival
interpretability objectives — needs those rivals to be *pluggable*: the
regularizer must be data, not an inheritance hierarchy.  This package
defines the :class:`~repro.objectives.base.Objective` protocol
(``term_on_batch(model, batch, ctx) -> (loss, diagnostics)``), the
:class:`~repro.objectives.base.ObjectiveStack` that sums a base
reconstruction/ELBO term with named weighted regularizer terms, and the
registry of declarative :class:`~repro.objectives.registry.ObjectiveSpec`
entries that travel through :class:`~repro.training.trainer.RunSpec`, the
CLI and the parallel fan-out.

Layering: this package may import tensor/autodiff machinery, the
similarity/NPMI infrastructure and :mod:`repro.core`'s pure loss kernels —
but never the trainer, optimizers or model classes.  Models *consume*
objectives (via ``build_objectives``); objectives only ever see a model as
a duck-typed argument.
"""

from repro.objectives.base import (
    BatchContext,
    ElboObjective,
    Objective,
    ObjectiveStack,
    ObjectiveTerm,
)
from repro.objectives.baselines import (
    ClusteringRegularizerObjective,
    EmbeddingCoherenceObjective,
    ReinforceObjective,
)
from repro.objectives.clntm import DocumentContrastiveObjective
from repro.objectives.coherence import DiversityAwareCoherenceObjective
from repro.objectives.contrastive import TopicContrastiveObjective
from repro.objectives.registry import (
    ObjectiveSpec,
    attach_objectives,
    available_objectives,
    build_objective,
    build_stack,
)
from repro.objectives.vicreg import VicRegObjective

__all__ = [
    "BatchContext",
    "ClusteringRegularizerObjective",
    "DiversityAwareCoherenceObjective",
    "DocumentContrastiveObjective",
    "ElboObjective",
    "EmbeddingCoherenceObjective",
    "Objective",
    "ObjectiveSpec",
    "ObjectiveStack",
    "ObjectiveTerm",
    "ReinforceObjective",
    "TopicContrastiveObjective",
    "VicRegObjective",
    "attach_objectives",
    "available_objectives",
    "build_objective",
    "build_stack",
]

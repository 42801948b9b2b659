"""VTMRL — neural topic model with reinforcement learning (Gui et al., 2019).

Treats the per-topic top-word selection as an action and the topic's NPMI
coherence as the reward, updating the topic-word logits with the score-
function (REINFORCE) estimator plus a running-mean baseline.  This is the
paper's representative "non-differentiable coherence reward" baseline —
contrast with ContraTopic's fully differentiable surrogate; the paper notes
its "intricate complexity of the states poses challenges for convergence".
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.metrics.npmi import NpmiMatrix
from repro.models.base import NTMConfig
from repro.models.prodlda import ProdLDA
from repro.objectives.base import ObjectiveTerm
from repro.objectives.baselines import ReinforceObjective


class VTMRL(ProdLDA):
    """ProdLDA + REINFORCE coherence reward.

    Parameters
    ----------
    npmi:
        Pre-computed NPMI matrix on the training corpus (the reward signal).
    reward_weight:
        Scale of the policy-gradient term in the loss.
    sample_words:
        Number of words sampled (without replacement) per topic per step.
    """

    def __init__(
        self,
        vocab_size: int,
        config: NTMConfig,
        npmi: NpmiMatrix,
        reward_weight: float = 5.0,
        sample_words: int = 10,
    ):
        super().__init__(vocab_size, config)
        if npmi.vocab_size != vocab_size:
            raise ShapeError(
                f"NPMI vocab {npmi.vocab_size} != model vocab {vocab_size}"
            )
        self._reinforce = ReinforceObjective(npmi, sample_words=sample_words)
        self.reward_weight = reward_weight
        self.sample_words = sample_words
        # The REINFORCE running-mean baseline: a buffer, so checkpoints and
        # the guard's restore point carry it.
        self.register_buffer("reward_baseline", np.zeros(()))

    def build_objectives(self):
        """ELBO + the policy-gradient reward as the ``reinforce`` term."""
        stack = super().build_objectives()
        stack.terms.append(
            ObjectiveTerm("reinforce", self._reinforce, weight=self.reward_weight)
        )
        return stack

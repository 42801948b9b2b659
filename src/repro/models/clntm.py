"""CLNTM — contrastive learning for neural topic models (Nguyen & Luu, 2021).

The paper's representative *document-wise* contrastive baseline, and the
method ContraTopic is contrasted against in §IV.E.  Since the objective
refactor the math lives in
:class:`repro.objectives.clntm.DocumentContrastiveObjective`; this class
is the registry alias **ProdLDA backbone + that one term** — its training
is bitwise-identical to ``ProdLDA`` with
``ObjectiveSpec("clntm")`` attached (pinned by
``tests/objectives/test_rivals.py``).
"""

from __future__ import annotations

from repro.models.base import NTMConfig
from repro.models.prodlda import ProdLDA
from repro.objectives.base import ObjectiveTerm
from repro.objectives.clntm import DocumentContrastiveObjective


class CLNTM(ProdLDA):
    """ProdLDA + document-wise InfoNCE with tf-idf driven views.

    Parameters
    ----------
    contrastive_weight:
        Weight of the InfoNCE term in the loss.
    salient_fraction:
        Fraction of a document's present words (by tf-idf) treated salient.
    temperature:
        InfoNCE softmax temperature.
    """

    def __init__(
        self,
        vocab_size: int,
        config: NTMConfig,
        contrastive_weight: float = 1.0,
        salient_fraction: float = 0.25,
        temperature: float = 0.5,
    ):
        super().__init__(vocab_size, config)
        self.contrastive_weight = contrastive_weight
        self.salient_fraction = salient_fraction
        self.temperature = temperature
        self._objective = DocumentContrastiveObjective(
            salient_fraction=salient_fraction, temperature=temperature
        )

    def build_objectives(self):
        """ELBO + the InfoNCE term as the ``clntm`` term."""
        stack = super().build_objectives()
        stack.terms.append(
            ObjectiveTerm("clntm", self._objective, weight=self.contrastive_weight)
        )
        return stack

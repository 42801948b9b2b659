"""Objective-stack semantics + bitwise oracles against the legacy loss.

The tentpole contract of the objective pipeline: refactored models are
*facades* — ``loss_on_batch`` through the stack reproduces the historical
inline implementation bitwise (same values, same parts keys in the same
order, same gradients, same RNG consumption).  The ``_Legacy*`` subclasses
below carry the pre-refactor ``loss_on_batch`` body verbatim and act as
the oracle; they live in this test module on purpose (library models are
forbidden from overriding ``loss_on_batch`` by
``tests/test_architecture.py``).
"""

import numpy as np
import pytest

from repro.core import ContraTopic, npmi_kernel
from repro.errors import ConfigError
from repro.models import ETM, ProdLDA
from repro.objectives import (
    DiversityAwareCoherenceObjective,
    ElboObjective,
    ObjectiveSpec,
    ObjectiveStack,
    ObjectiveTerm,
    attach_objectives,
)


class _LegacyLossMixin:
    """The pre-refactor ``NeuralTopicModel.loss_on_batch`` body, verbatim.

    It carries the removed ``extra_loss`` hook and its on/off switch too:
    the base hook body (no regularizer) here, and each model's override in
    its ``_Legacy*`` subclass.
    """

    extra_loss_enabled = True

    def extra_loss(self, theta, beta, bow):
        return None

    def loss_on_batch(self, bow):
        theta, mu, logvar = self.encode_theta(bow, sample=True)
        beta = self.beta()
        rec = self.reconstruction_loss(theta, beta, bow)
        kl = self.kl_loss(mu, logvar, theta)
        loss = rec + kl * self.config.kl_weight
        parts = {"rec": rec.item(), "kl": kl.item()}
        extra = (
            self.extra_loss(theta, beta, bow) if self.extra_loss_enabled else None
        )
        if extra is not None:
            loss = loss + extra
            parts["extra"] = extra.item()
        parts["total"] = loss.item()
        return loss, parts


class _LegacyProdLDA(_LegacyLossMixin, ProdLDA):
    pass


class _LegacyETM(_LegacyLossMixin, ETM):
    pass


class _LegacyContraTopic(_LegacyLossMixin, ContraTopic):
    def extra_loss(self, theta, beta, bow):
        return self.contrastive_loss(beta) * self.regularizer.lambda_weight


def _grad_map(model) -> dict[str, np.ndarray]:
    return {
        name: param.grad
        for name, param in model.named_parameters()
        if param.grad is not None
    }


def _assert_bitwise_batch(stacked, legacy, bow) -> None:
    """One training step on each model must agree bitwise everywhere.

    The stack may *add* per-term telemetry keys (``objective_<name>``)
    the legacy dict never had; every legacy key must survive, in order,
    with the bitwise-identical value.
    """
    loss_new, parts_new = stacked.loss_on_batch(bow)
    loss_old, parts_old = legacy.loss_on_batch(bow)
    added = [key for key in parts_new if key not in parts_old]
    assert all(key.startswith("objective_") for key in added), added
    assert [key for key in parts_new if key in parts_old] == list(parts_old)
    for key in parts_old:
        assert parts_new[key] == parts_old[key], key
    assert loss_new.item() == loss_old.item()
    loss_new.backward()
    loss_old.backward()
    grads_new, grads_old = _grad_map(stacked), _grad_map(legacy)
    assert set(grads_new) == set(grads_old)
    for name in grads_old:
        np.testing.assert_array_equal(grads_new[name], grads_old[name])
    stacked.zero_grad()
    legacy.zero_grad()


class TestBitwiseOracles:
    def test_prodlda_matches_legacy(self, tiny_corpus, fast_config):
        bow = tiny_corpus.bow_matrix()[:24]
        stacked = ProdLDA(tiny_corpus.vocab_size, fast_config)
        legacy = _LegacyProdLDA(tiny_corpus.vocab_size, fast_config)
        for _ in range(3):  # several batches: RNG streams must stay aligned
            _assert_bitwise_batch(stacked, legacy, bow)

    def test_etm_matches_legacy(self, tiny_corpus, tiny_embeddings, fast_config):
        bow = tiny_corpus.bow_matrix()[:24]
        stacked = ETM(tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors)
        legacy = _LegacyETM(
            tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors
        )
        for _ in range(3):
            _assert_bitwise_batch(stacked, legacy, bow)

    def test_contratopic_matches_legacy(
        self, tiny_corpus, tiny_npmi, tiny_embeddings, fast_config
    ):
        bow = tiny_corpus.bow_matrix()[:24]

        def build(cls):
            backbone = ETM(
                tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors
            )
            return cls(backbone, npmi_kernel(tiny_npmi))

        stacked = build(ContraTopic)
        legacy = build(_LegacyContraTopic)
        for _ in range(3):  # Gumbel + epsilon streams must stay aligned
            _assert_bitwise_batch(stacked, legacy, bow)

    def test_degraded_contratopic_matches_legacy(
        self, tiny_corpus, tiny_npmi, tiny_embeddings, fast_config
    ):
        """Disabling the term skips its RNG draw exactly like the old flag."""
        bow = tiny_corpus.bow_matrix()[:24]

        def build(cls):
            backbone = ETM(
                tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors
            )
            return cls(backbone, npmi_kernel(tiny_npmi))

        stacked = build(ContraTopic)
        legacy = build(_LegacyContraTopic)
        _assert_bitwise_batch(stacked, legacy, bow)  # one regularized step
        stacked.objectives.set_enabled("contrastive", False)
        legacy.extra_loss_enabled = False
        _assert_bitwise_batch(stacked, legacy, bow)  # ELBO-only, streams aligned
        stacked.objectives.set_enabled("contrastive", True)
        legacy.extra_loss_enabled = True
        _assert_bitwise_batch(stacked, legacy, bow)  # re-enabled, still aligned


class TestStackSemantics:
    def _two_term_stack(self) -> ObjectiveStack:
        return ObjectiveStack(
            ElboObjective(),
            [
                ObjectiveTerm("first", DiversityAwareCoherenceObjective()),
                ObjectiveTerm("second", DiversityAwareCoherenceObjective()),
            ],
        )

    def test_duplicate_term_names_rejected(self):
        with pytest.raises(ConfigError):
            ObjectiveStack(
                ElboObjective(),
                [
                    ObjectiveTerm("dup", DiversityAwareCoherenceObjective()),
                    ObjectiveTerm("dup", DiversityAwareCoherenceObjective()),
                ],
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            ObjectiveTerm("t", DiversityAwareCoherenceObjective(), weight=-1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            ObjectiveTerm("", DiversityAwareCoherenceObjective())

    def test_unknown_term_lookup_raises(self):
        with pytest.raises(ConfigError):
            self._two_term_stack().term("missing")

    def test_disable_next_sheds_in_reverse_order(self):
        stack = self._two_term_stack()
        assert stack.disable_next() == "second"
        assert stack.disable_next() == "first"
        assert stack.disable_next() is None
        assert stack.flags() == {"first": False, "second": False}

    def test_apply_flags_sets_the_named_terms(self):
        stack = self._two_term_stack()
        stack.apply_flags({"first": False})
        assert stack.flags() == {"first": False, "second": True}
        stack.apply_flags({"first": True, "second": False})
        assert stack.flags() == {"first": True, "second": False}
        with pytest.raises(ConfigError):
            stack.apply_flags({"extra": False})

    def test_parts_carry_named_term_and_aggregate(
        self, tiny_corpus, fast_config
    ):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        attach_objectives(model, (ObjectiveSpec("coherence", weight=2.0),))
        model.on_fit_start(tiny_corpus)
        _, parts = model.loss_on_batch(tiny_corpus.bow_matrix()[:16])
        assert list(parts) == [
            "rec",
            "kl",
            "objective_coherence",
            "extra",
            "total",
        ]
        assert parts["extra"] == parts["objective_coherence"]

    def test_rng_streams_surface_objective_streams(
        self, tiny_corpus, tiny_embeddings, fast_config
    ):
        model = ETM(tiny_corpus.vocab_size, fast_config, tiny_embeddings.vectors)
        attach_objectives(model, (ObjectiveSpec("contrastive"),))
        model.on_fit_start(tiny_corpus)
        streams = model.rng_streams()
        assert "model" in streams
        assert "objective_contrastive" in streams

"""ObjectiveSpec validation, RunSpec objectives and trainer attachment."""

import pickle
from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.models import CLNTM, ProdLDA
from repro.objectives import (
    ObjectiveSpec,
    attach_objectives,
    available_objectives,
    build_objective,
    build_stack,
)
from repro.objectives.registry import DEFAULT_WEIGHTS
from repro.training.trainer import RunSpec, Trainer


class TestObjectiveSpec:
    def test_registry_lists_all_rivals(self):
        assert set(available_objectives()) == {
            "clntm",
            "coherence",
            "contrastive",
            "vicreg",
        }

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigError):
            ObjectiveSpec("dropout")

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            ObjectiveSpec("coherence", weight=-2.0)

    def test_params_must_be_a_mapping(self):
        with pytest.raises(ConfigError):
            ObjectiveSpec("coherence", params=[1, 2])

    def test_default_weight_comes_from_registry(self):
        for name in available_objectives():
            assert ObjectiveSpec(name).resolved_weight() == DEFAULT_WEIGHTS[name]
        assert ObjectiveSpec("vicreg", weight=3.5).resolved_weight() == 3.5

    def test_build_objective_rejects_unknown_params(self):
        with pytest.raises(ConfigError):
            build_objective(ObjectiveSpec("coherence", params={"tau": 0.1}))

    def test_build_stack_names_and_weights(self):
        stack = build_stack(
            (ObjectiveSpec("coherence"), ObjectiveSpec("vicreg", weight=2.0))
        )
        assert stack.term_names() == ("coherence", "vicreg")
        assert stack.term("coherence").weight == DEFAULT_WEIGHTS["coherence"]
        assert stack.term("vicreg").weight == 2.0

    def test_attach_requires_a_stack_capable_model(self):
        with pytest.raises(ConfigError):
            attach_objectives(object(), (ObjectiveSpec("coherence"),))


class TestRunSpecObjectives:
    def _spec(self) -> RunSpec:
        return RunSpec(
            objectives=(
                ObjectiveSpec("coherence", weight=2.0),
                ObjectiveSpec("vicreg"),
            )
        )

    def test_invalid_entry_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(objectives=("coherence",))
        with pytest.raises(ConfigError):
            RunSpec(objectives=({"name": "vicreg"},))

    def test_pickle_round_trip(self):
        spec = self._spec()
        assert pickle.loads(pickle.dumps(spec)).objectives == spec.objectives


class TestTrainerAttachment:
    def test_spec_objectives_replace_the_model_stack(
        self, tiny_corpus, fast_config
    ):
        config = replace(fast_config, epochs=2)
        model = ProdLDA(tiny_corpus.vocab_size, config)
        run = RunSpec(objectives=(ObjectiveSpec("coherence"),))
        Trainer(run).fit(model, tiny_corpus)
        assert model.objectives.term_names() == ("coherence",)
        assert all("objective_coherence" in row for row in model.history)

    def test_empty_objectives_train_pure_elbo(self, tiny_corpus, fast_config):
        config = replace(fast_config, epochs=2)
        model = ProdLDA(tiny_corpus.vocab_size, config)
        Trainer(RunSpec(objectives=())).fit(model, tiny_corpus)
        assert model.objectives.term_names() == ()
        assert all("extra" not in row for row in model.history)

    def test_none_keeps_the_model_declared_stack(self, tiny_corpus, fast_config):
        config = replace(fast_config, epochs=2)
        model = CLNTM(tiny_corpus.vocab_size, config)
        Trainer(RunSpec()).fit(model, tiny_corpus)
        assert model.objectives.term_names() == ("clntm",)

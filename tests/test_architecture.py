"""Architecture conformance: the models layer stays free of the engine.

The training loop lives in :mod:`repro.training.trainer`; models describe
losses.  These tests pin that boundary so it cannot silently erode:

* no :class:`~repro.models.base.NeuralTopicModel` subclass re-implements
  ``fit`` (every model trains through the one engine, so guards, faults,
  checkpoints and telemetry hold everywhere);
* no module under ``repro.models`` holds objects from the optimizer /
  guard / fault / trainer machinery at import time (annotation-only
  ``TYPE_CHECKING`` imports remain legal — the check inspects the runtime
  namespaces, not the source text);
* no library model re-implements ``loss_on_batch`` with inline
  regularizer math — regularizers live in :mod:`repro.objectives` and
  models compose them by overriding ``build_objectives`` (so the guard's
  per-term shedding, checkpoint flags and telemetry see every term);
* every registry neural model declares its regularizer, if any, as a
  named term of its objective stack;
* :mod:`repro.objectives` itself stays below the training layer: its
  modules never hold trainer / optimizer / guard / fault machinery;
* no library module defines a ``*_composed`` reference build: those are
  test oracles and live under ``tests/``.
"""

import importlib
import pkgutil
import types

# Import the packages that define NeuralTopicModel subclasses so the
# __subclasses__ walk below sees all of them.
import repro.core  # noqa: F401
import repro.extensions  # noqa: F401
import repro.models
import repro.objectives
from repro.models import available_models, build_model
from repro.models.base import NeuralTopicModel

#: Modules whose machinery must not leak into the models layer.
FORBIDDEN_MODULES = {
    "repro.nn.optim",
    "repro.training.faults",
    "repro.training.resilience",
    "repro.training.trainer",
}


def _all_subclasses(cls) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        found.add(sub)
        found |= _all_subclasses(sub)
    return found


def _models_modules() -> list[types.ModuleType]:
    modules = [repro.models]
    for _, name, _ in pkgutil.iter_modules(
        repro.models.__path__, "repro.models."
    ):
        modules.append(importlib.import_module(name))
    return modules


def test_no_neural_model_overrides_fit():
    subclasses = _all_subclasses(NeuralTopicModel)
    assert subclasses, "subclass walk found no models — import wiring broken?"
    offenders = [cls.__name__ for cls in subclasses if "fit" in vars(cls)]
    assert not offenders, (
        f"{offenders} override NeuralTopicModel.fit; training belongs to "
        "repro.training.trainer.Trainer — implement loss_on_batch / "
        "on_fit_start / rng_streams instead"
    )


def test_models_layer_does_not_import_training_machinery():
    offenders = []
    for module in _models_modules():
        for attr, obj in vars(module).items():
            if isinstance(obj, types.ModuleType):
                if obj.__name__ in FORBIDDEN_MODULES:
                    offenders.append(f"{module.__name__}.{attr}")
                continue
            if getattr(obj, "__module__", None) in FORBIDDEN_MODULES:
                offenders.append(f"{module.__name__}.{attr}")
    assert not offenders, (
        f"models-layer namespaces hold training machinery: {offenders}; "
        "use lazy (in-function) or TYPE_CHECKING imports"
    )


def test_no_library_model_overrides_loss_on_batch():
    """Regularizers compose through build_objectives, not inline math.

    ``loss_on_batch`` is the one dispatch point into the objective stack;
    a model overriding it with hand-rolled regularizer arithmetic would
    hide its terms from the guard's per-term degradation, checkpointed
    term flags and the ``objective_<name>`` telemetry.  Test-local
    subclasses (the bitwise oracles in ``tests/objectives``) are exempt —
    only classes shipped under ``repro.*`` are held to the rule.
    """
    library = [
        cls
        for cls in _all_subclasses(NeuralTopicModel)
        if cls.__module__.startswith("repro.")
    ]
    assert library, "subclass walk found no library models"
    offenders = [cls.__name__ for cls in library if "loss_on_batch" in vars(cls)]
    assert not offenders, (
        f"{offenders} override NeuralTopicModel.loss_on_batch; add terms "
        "by overriding build_objectives with repro.objectives entries"
    )


#: The regularizer terms each registry neural model declares.
DECLARED_TERMS = {
    "prodlda": (),
    "wlda": (),
    "etm": (),
    "nstm": (),
    "wete": (),
    "ntmr": ("embedding_coherence",),
    "vtmrl": ("reinforce",),
    "clntm": ("clntm",),
    "ecrtm": ("ecr",),
    "contratopic": ("contrastive",),
}


def test_every_library_regularizer_is_a_named_stack_term(
    tiny_corpus, tiny_embeddings, tiny_npmi, fast_config
):
    """Each regularizer is a named term of the model's objective stack.

    The stack is the only way a loss term enters training, so pinning the
    term names here keeps the guard's per-term degradation, the
    checkpointed term flags and the per-term telemetry from missing one.
    """
    declared = {}
    for name in available_models():
        model = build_model(
            name,
            tiny_corpus.vocab_size,
            fast_config,
            word_embeddings=tiny_embeddings.vectors,
            npmi=tiny_npmi,
        )
        if isinstance(model, NeuralTopicModel):
            declared[name] = model.objectives.term_names()
    assert declared == DECLARED_TERMS


def _objectives_modules() -> list[types.ModuleType]:
    modules = [repro.objectives]
    for _, name, _ in pkgutil.iter_modules(
        repro.objectives.__path__, "repro.objectives."
    ):
        modules.append(importlib.import_module(name))
    return modules


def test_objectives_layer_does_not_import_training_machinery():
    """The objective zoo sits below the engine: no trainer imports."""
    offenders = []
    for module in _objectives_modules():
        for attr, obj in vars(module).items():
            if isinstance(obj, types.ModuleType):
                if obj.__name__ in FORBIDDEN_MODULES:
                    offenders.append(f"{module.__name__}.{attr}")
                continue
            if getattr(obj, "__module__", None) in FORBIDDEN_MODULES:
                offenders.append(f"{module.__name__}.{attr}")
    assert not offenders, (
        f"repro.objectives namespaces hold training machinery: {offenders}; "
        "objectives must stay importable below the engine"
    )


def test_no_library_module_defines_a_composed_reference():
    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        offenders += [
            f"{info.name}.{name}"
            for name, value in vars(module).items()
            if name.endswith("_composed") and callable(value)
        ]
    assert offenders == []

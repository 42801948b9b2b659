"""Declarative objective specs: names + weights + params as plain data.

:class:`ObjectiveSpec` is the picklable form a regularizer takes
inside a :class:`~repro.training.trainer.RunSpec`, a CLI flag or a
parallel fan-out task; :func:`build_objective`/:func:`build_stack` turn
specs into live :class:`~repro.objectives.base.Objective` instances at fit
time (corpus-dependent state — NPMI kernels, idf tables, RNG streams — is
deferred to each objective's ``prepare`` hook, which is why specs can stay
plain data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.errors import ConfigError
from repro.objectives.base import (
    ElboObjective,
    Objective,
    ObjectiveStack,
    ObjectiveTerm,
)
from repro.objectives.clntm import DocumentContrastiveObjective
from repro.objectives.coherence import DiversityAwareCoherenceObjective
from repro.objectives.contrastive import TopicContrastiveObjective
from repro.objectives.vicreg import VicRegObjective

_BUILDERS: dict[str, Callable[..., Objective]] = {
    "contrastive": TopicContrastiveObjective,
    "clntm": DocumentContrastiveObjective,
    "coherence": DiversityAwareCoherenceObjective,
    "vicreg": VicRegObjective,
}

#: Default term weight per objective when the spec leaves it unset.  The
#: contrastive default is the paper's 20NG λ; the rivals' defaults follow
#: their own papers' conventions (CLNTM and VICReg carry internal
#: coefficients, so their stack weight is 1).
DEFAULT_WEIGHTS: dict[str, float] = {
    "contrastive": 40.0,
    "clntm": 1.0,
    "coherence": 10.0,
    "vicreg": 1.0,
}


def available_objectives() -> tuple[str, ...]:
    """Registered regularizer names, sorted (CLI choices, validation)."""
    return tuple(sorted(_BUILDERS))


@dataclass(frozen=True)
class ObjectiveSpec:
    """One regularizer term as declarative data.

    ``weight=None`` resolves to the registry default for the name;
    ``params`` go to the objective constructor verbatim (e.g.
    ``{"salient_fraction": 0.3}`` for ``clntm``).
    """

    name: str
    weight: float | None = None
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in _BUILDERS:
            raise ConfigError(
                f"unknown objective {self.name!r}; available: "
                f"{list(available_objectives())}"
            )
        if self.weight is not None and self.weight < 0:
            raise ConfigError(
                f"objective {self.name!r} weight must be non-negative, "
                f"got {self.weight}"
            )
        if not isinstance(self.params, Mapping):
            raise ConfigError(
                f"objective {self.name!r} params must be a mapping, "
                f"got {type(self.params).__name__}"
            )
        object.__setattr__(self, "params", dict(self.params))

    def resolved_weight(self) -> float:
        return (
            float(self.weight)
            if self.weight is not None
            else DEFAULT_WEIGHTS[self.name]
        )


def build_objective(spec: ObjectiveSpec) -> Objective:
    """Instantiate one spec (unknown params become ConfigErrors)."""
    builder = _BUILDERS[spec.name]
    try:
        return builder(**dict(spec.params))
    except TypeError as exc:
        raise ConfigError(
            f"bad params for objective {spec.name!r}: {exc}"
        ) from exc


def build_stack(specs: Sequence[ObjectiveSpec]) -> ObjectiveStack:
    """An ELBO-based stack with one term per spec, in order."""
    terms = [
        ObjectiveTerm(
            name=spec.name,
            objective=build_objective(spec),
            weight=spec.resolved_weight(),
        )
        for spec in specs
    ]
    return ObjectiveStack(ElboObjective(), terms)


def attach_objectives(model, specs: Sequence[ObjectiveSpec]) -> ObjectiveStack:
    """Replace ``model``'s stack with one built from ``specs``.

    The trainer calls this before ``on_fit_start`` when
    ``RunSpec.objectives`` is set, so the stack's ``prepare`` hooks see
    the training corpus.
    """
    setter = getattr(model, "set_objectives", None)
    if setter is None:
        raise ConfigError(
            f"{type(model).__name__} does not support objective stacks "
            "(no set_objectives); RunSpec.objectives requires a "
            "NeuralTopicModel"
        )
    stack = build_stack(specs)
    setter(stack)
    return stack

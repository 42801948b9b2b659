"""The objective pipeline: a base ELBO term plus named regularizer terms.

A model's loss is data: a base term (the reconstruction + KL ELBO) plus
an ordered list of named, weighted, individually-disableable regularizer
terms.  A model declares its terms by overriding ``build_objectives``;
this is the only way a regularizer enters training, so the guard's
per-term degradation, checkpoint flags and telemetry see every term.

The compute path is kept *operation-for-operation identical* to the
historical inline ``loss_on_batch`` body (same tensor ops, same order,
same RNG consumption), so models refactored onto a stack train
bitwise-identically — the oracle tests in ``tests/objectives/`` pin this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.data.corpus import Corpus
    from repro.tensor.sparse import CSRBatch
    from repro.tensor.tensor import Tensor

#: The batch payload objectives receive — dense counts or a CSR batch.
Batch = "np.ndarray | CSRBatch"


@dataclass
class BatchContext:
    """Per-batch activations shared by every term (computed once).

    ``theta``/``mu``/``logvar`` come from one ``encode_theta`` call and
    ``beta`` from one decoder evaluation, so adding terms never repeats
    the encoder forward pass or consumes extra reparameterization noise.
    """

    theta: "Tensor"
    mu: "Tensor"
    logvar: "Tensor"
    beta: "Tensor"


class Objective:
    """One named loss term over a batch.

    Subclasses implement :meth:`term_on_batch` returning the (unweighted)
    differentiable term and a dict of scalar diagnostics; ``None`` means
    the term contributes nothing for this batch.  :meth:`prepare` runs
    once before training with the corpus (e.g. to build an NPMI kernel or
    tf-idf table) so specs stay plain picklable data until fit time.

    An objective holding its own RNG stream exposes it as ``self.rng`` —
    the stack surfaces it through :meth:`ObjectiveStack.rng_streams` so
    checkpoints capture it and resume stays bitwise.
    """

    #: Default registry/display name; the owning term may rename it.
    name: str = "objective"
    #: Optional private RNG stream (checkpointed when present).
    rng: np.random.Generator | None = None

    def prepare(self, model, corpus: "Corpus") -> None:
        """Pre-training hook (corpus statistics, kernels, RNG seeding)."""

    def term_on_batch(
        self, model, batch, ctx: BatchContext
    ) -> "tuple[Tensor | None, dict[str, float]]":
        """Return ``(unweighted term, diagnostics)`` for one batch."""
        raise NotImplementedError


class ElboObjective(Objective):
    """The base term: reconstruction NLL + KL, exactly as the models define it.

    Delegates to the model's ``reconstruction_loss``/``kl_loss`` hooks so
    backbone variations (OT reconstruction, MMD in place of KL) keep
    working unchanged through the stack.
    """

    name = "elbo"

    def term_on_batch(self, model, batch, ctx: BatchContext):
        rec = model.reconstruction_loss(ctx.theta, ctx.beta, batch)
        kl = model.kl_loss(ctx.mu, ctx.logvar, ctx.theta)
        loss = rec + kl * model.config.kl_weight
        return loss, {"rec": rec.item(), "kl": kl.item()}


@dataclass
class ObjectiveTerm:
    """One named, weighted, disableable regularizer slot in a stack."""

    name: str
    objective: Objective
    weight: float = 1.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("objective term name must be non-empty")
        if self.weight < 0:
            raise ConfigError(
                f"objective term {self.name!r} weight must be non-negative, "
                f"got {self.weight}"
            )


class ObjectiveStack:
    """A base term plus ordered named regularizer terms, summed per batch.

    The stack owns the loss composition the trainer sees: one encoder
    forward, the base ELBO, then every *enabled* term in order.  Disabled
    terms are never invoked — they consume no RNG and add no graph nodes —
    which is what makes a degraded run bitwise-equal to one that never
    had the term.
    """

    def __init__(
        self,
        base: Objective | None = None,
        terms: Sequence[ObjectiveTerm] = (),
    ):
        self.base = base if base is not None else ElboObjective()
        self.terms: list[ObjectiveTerm] = list(terms)
        seen: set[str] = set()
        for term in self.terms:
            if term.name in seen:
                raise ConfigError(
                    f"duplicate objective term name {term.name!r} in stack"
                )
            seen.add(term.name)

    # ------------------------------------------------------------------
    # introspection / per-term flags
    # ------------------------------------------------------------------
    def term_names(self) -> tuple[str, ...]:
        return tuple(term.name for term in self.terms)

    def term(self, name: str) -> ObjectiveTerm:
        for term in self.terms:
            if term.name == name:
                return term
        raise ConfigError(
            f"no objective term named {name!r} (have: {list(self.term_names())})"
        )

    def flags(self) -> dict[str, bool]:
        """``{term name: enabled}`` — the per-term degradation state."""
        return {term.name: bool(term.enabled) for term in self.terms}

    def set_enabled(self, name: str, enabled: bool) -> None:
        self.term(name).enabled = bool(enabled)

    def apply_flags(self, flags: dict[str, bool]) -> None:
        """Set per-term enables from a ``{term name: enabled}`` dict."""
        for name, enabled in flags.items():
            self.set_enabled(str(name), bool(enabled))

    def disable_next(self) -> str | None:
        """Disable the last still-enabled term; returns its name.

        The guard's degradation ladder calls this — regularizers shed in
        reverse stack order (the base ELBO term is never disabled), and
        ``None`` signals there is nothing left to degrade.
        """
        for term in reversed(self.terms):
            if term.enabled:
                term.enabled = False
                return term.name
        return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def prepare(self, model, corpus: "Corpus") -> None:
        """Run every term's pre-training hook (base first, then in order)."""
        self.base.prepare(model, corpus)
        for term in self.terms:
            term.objective.prepare(model, corpus)

    def rng_streams(self) -> dict[str, np.random.Generator]:
        """Private RNG streams of the terms, namespaced per term."""
        streams: dict[str, np.random.Generator] = {}
        for term in self.terms:
            rng = term.objective.rng
            if rng is not None:
                streams[f"objective_{term.name}"] = rng
        return streams

    # ------------------------------------------------------------------
    # the loss composition (the bitwise-pinned path)
    # ------------------------------------------------------------------
    def compute(self, model, batch) -> "tuple[Tensor, dict[str, float]]":
        """Total loss and scalar parts for one batch.

        Op order matches the pre-refactor inline ``loss_on_batch`` body
        exactly: encode, decode, rec + kl·w, then each enabled term added
        in stack order.  A term with weight 1.0 is added without the
        multiply node so the legacy ``loss + extra`` graph is reproduced
        node-for-node (×1.0 would be value-bitwise anyway; skipping it
        keeps the graphs structurally identical too).
        """
        theta, mu, logvar = model.encode_theta(batch, sample=True)
        beta = model.beta()
        ctx = BatchContext(theta=theta, mu=mu, logvar=logvar, beta=beta)
        loss, base_parts = self.base.term_on_batch(model, batch, ctx)
        parts = dict(base_parts)
        extra_total: float | None = None
        for term in self.terms:
            if not term.enabled:
                continue
            value, diagnostics = term.objective.term_on_batch(model, batch, ctx)
            if value is None:
                continue
            weighted = value if term.weight == 1.0 else value * term.weight
            loss = loss + weighted
            item = weighted.item()
            parts[f"objective_{term.name}"] = item
            extra_total = item if extra_total is None else extra_total + item
            for key, diag_value in diagnostics.items():
                parts[f"objective_{term.name}_{key}"] = float(diag_value)
        if extra_total is not None:
            # The historical aggregate key: telemetry's "contrastive"
            # column and the bench reports read it, and single-term
            # stacks record exactly the legacy value.
            parts["extra"] = extra_total
        parts["total"] = loss.item()
        return loss, parts

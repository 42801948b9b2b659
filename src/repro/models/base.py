"""Shared topic-model interface and the common VAE scaffolding (§III.B).

The generative story shared by the paper's VAE-based NTMs:

1. θ ~ LogisticNormal(μ0, σ0²)   (approximating the Dirichlet prior)
2. for each word: z ~ Cat(θ); w ~ Cat(β_z)

with amortized inference q(θ|w): an MLP over the bag-of-words produces
μ(w), log σ(w); θ = softmax(μ + σ ⊙ ε).  Subclasses differ only in how the
topic-word matrix β is parameterized and which extra loss terms they add.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.data.corpus import Corpus
from repro.data.vocabulary import Vocabulary
from repro.errors import ConfigError, CorpusError, NotFittedError, ShapeError
from repro.nn import BatchNorm1d, Linear, MLP, Module
from repro.tensor import functional as F
from repro.tensor import dtypes, fused, kernels
from repro.tensor.dtypes import get_default_dtype, get_sparse_policy
from repro.tensor.sparse import CSRBatch
from repro.tensor.tensor import Tensor, no_grad

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.objectives.base import ObjectiveStack
    from repro.training.callbacks import Callback
    from repro.training.trainer import TrainState


@dataclass
class NTMConfig:
    """Hyper-parameters shared by every neural topic model here.

    Scaled-down defaults relative to the paper (encoder 800→128 hidden
    units, 100→20 topics, batch 1000→256) so CPU training finishes in
    seconds; the paper's values can be passed explicitly.
    """

    num_topics: int = 20
    hidden_sizes: tuple[int, ...] = (128, 128)
    activation: str = "selu"
    dropout: float = 0.2
    learning_rate: float = 2e-3
    batch_size: int = 256
    epochs: int = 30
    embedding_dim: int = 100
    beta_temperature: float = 0.1  # τ_β of ETM-style decoders
    grad_clip: float = 10.0
    kl_weight: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_topics < 2:
            raise ConfigError("num_topics must be >= 2")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.beta_temperature <= 0:
            raise ConfigError("beta_temperature must be positive")


class TopicModel(abc.ABC):
    """The uniform interface every topic model implements."""

    @abc.abstractmethod
    def fit(self, corpus: Corpus) -> "TopicModel":
        """Train on a corpus; returns self for chaining."""

    @abc.abstractmethod
    def topic_word_matrix(self) -> np.ndarray:
        """``(K, V)`` matrix with rows on the simplex."""

    @abc.abstractmethod
    def transform(self, corpus: Corpus) -> np.ndarray:
        """``(D, K)`` document-topic proportions for a (held-out) corpus."""

    def top_words(self, vocabulary: Vocabulary, n: int = 10) -> list[list[str]]:
        """Top-``n`` word strings per topic."""
        beta = self.topic_word_matrix()
        order = np.argsort(-beta, axis=1)[:, :n]
        return [[vocabulary.token_of(int(w)) for w in row] for row in order]


class VaeEncoder(Module):
    """q(θ|w): MLP trunk then linear μ / log σ heads with batch-norm.

    Matches the paper's description: three-layer perceptron, SeLU,
    dropout 0.5, batch norm (§V.D) — widths are configurable.
    """

    def __init__(self, vocab_size: int, config: NTMConfig, rng: np.random.Generator):
        super().__init__()
        sizes = [vocab_size, *config.hidden_sizes]
        self.trunk = MLP(
            sizes,
            rng,
            activation=config.activation,
            dropout=config.dropout,
            final_activation=True,
        )
        hidden = sizes[-1]
        self.mu_head = Linear(hidden, config.num_topics, rng)
        self.logvar_head = Linear(hidden, config.num_topics, rng)
        self.mu_bn = BatchNorm1d(config.num_topics, affine=False)
        self.logvar_bn = BatchNorm1d(config.num_topics, affine=False)

    def forward(self, bow: Tensor | CSRBatch) -> tuple[Tensor, Tensor]:
        if isinstance(bow, CSRBatch):
            # Sparse fast path: the normalized CSR batch feeds the trunk's
            # first Linear, whose fused.linear dispatches to linear_csr —
            # O(nnz·hidden) instead of O(batch·vocab·hidden).
            pi = self.trunk(_normalized(bow))
        else:
            pi = self.trunk(Tensor(_normalized(bow.data)))
        mu = self.mu_bn(self.mu_head(pi))
        logvar = self.logvar_bn(self.logvar_head(pi))
        return mu, logvar

    def infer_theta(self, bow: np.ndarray | CSRBatch) -> np.ndarray:
        """θ = softmax(μ(w)) in eval mode, on plain arrays.

        The deterministic inference pass of §III.B: the trunk, the μ head,
        its batch norm by the running statistics and the softmax, each
        through the layer's ``infer`` — the same kernels, in the same
        order, as :meth:`forward` followed by ``softmax`` in eval mode, so
        θ is bitwise equal to ``encode_theta(bow, sample=False)[0]`` on an
        eval model.  The log σ head, whose output θ does not use, is not
        computed, no graph node is built and no module mode is read or
        changed.  ``bow`` must already be in the parameters' working
        dtype (``transform`` builds it so).
        """
        mu = self.mu_bn.infer(self.mu_head.infer(self.trunk.infer(_normalized(bow))))
        return kernels.softmax(mu, axis=1)


def _normalized(bow: np.ndarray | CSRBatch) -> np.ndarray | CSRBatch:
    """Counts divided by each document's length (at least 1).

    Normalizing keeps the encoder input scale stable across documents of
    very different lengths; the CSR form divides the same stored values
    (:meth:`~repro.tensor.sparse.CSRBatch.row_normalized`).
    """
    if isinstance(bow, CSRBatch):
        return bow.row_normalized()
    return bow / bow.sum(axis=1, keepdims=True).clip(min=1.0)


class NeuralTopicModel(TopicModel, Module):
    """Common machinery: encoder, reparameterization, ELBO, training loop.

    Subclasses must implement :meth:`beta` (the differentiable topic-word
    matrix) and may override :meth:`build_objectives` (regularizers — each
    one a named term of the model's
    :class:`~repro.objectives.base.ObjectiveStack`, the way ContraTopic
    adds λ·L_con), :meth:`reconstruction_loss` (OT-based models replace
    the categorical likelihood), and :meth:`kl_loss` (WLDA swaps the KL
    for MMD).
    """

    #: Class-level defaults so subclasses that bypass ``__init__`` (e.g.
    #: ContraTopic, which reuses its backbone's encoder) still have them.
    #: The objective stack is built lazily on first use (and replaceable
    #: via ``set_objectives`` / ``RunSpec.objectives``).
    _objectives: "ObjectiveStack | None" = None
    _trainer: "TrainState | None" = None

    def __init__(self, vocab_size: int, config: NTMConfig):
        Module.__init__(self)
        self.vocab_size = vocab_size
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.encoder = VaeEncoder(vocab_size, config, self._rng)
        self._fitted = False
        self.history: list[dict[str, float]] = []

    # ------------------------------------------------------------------
    # pieces subclasses provide / may override
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def beta(self) -> Tensor:
        """Differentiable ``(K, V)`` topic-word matrix (rows on simplex)."""

    def reconstruction_loss(
        self, theta: Tensor, beta: Tensor, bow: np.ndarray | CSRBatch
    ) -> Tensor:
        """Default: mean categorical negative log-likelihood (ETM-style).

        ``bow`` may be dense or a :class:`~repro.tensor.sparse.CSRBatch`.
        The sparse form fuses the whole mixture decode into one node that
        reads the mixture probabilities only at nonzero count positions:
        a batch at or above the kernel's measured density crossover
        computes them with one ``theta @ beta`` GEMM (gradients bitwise
        equal to the dense form), a sparser one gathers them without
        building the ``(batch, vocab)`` matrix (see
        :func:`~repro.tensor.fused.nll_from_mixture_csr`).
        """
        if isinstance(bow, CSRBatch):
            return fused.nll_from_mixture_csr(theta, beta, bow)
        return fused.nll_from_probs(theta @ beta, bow)

    def kl_loss(self, mu: Tensor, logvar: Tensor, theta: Tensor) -> Tensor:
        """Default: closed-form KL to the standard-normal logistic prior."""
        return F.kl_normal_standard(mu, logvar)

    # ------------------------------------------------------------------
    # the objective stack (composable loss terms)
    # ------------------------------------------------------------------
    def build_objectives(self) -> "ObjectiveStack":
        """The model's default loss composition.

        Base class: the ELBO alone, with no regularizer terms.  Models
        with a regularizer (ContraTopic, CLNTM, ECRTM, NTM-R, VTMRL, …)
        override this to append their named terms; a
        :class:`~repro.training.trainer.RunSpec` with ``objectives=``
        replaces whatever the model declares.
        """
        # Imported lazily: repro.objectives is a consumer-side layer and
        # importing it at module level would make every model import pull
        # in the similarity/NPMI machinery.
        from repro.objectives.base import ElboObjective, ObjectiveStack

        return ObjectiveStack(ElboObjective())

    @property
    def objectives(self) -> "ObjectiveStack":
        """The live stack (built lazily from :meth:`build_objectives`)."""
        if self._objectives is None:
            self._objectives = self.build_objectives()
        return self._objectives

    def set_objectives(self, stack: "ObjectiveStack") -> None:
        """Replace the stack (the ``RunSpec.objectives`` attachment path)."""
        self._objectives = stack

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def encode_theta(
        self, bow: np.ndarray | CSRBatch, sample: bool = True
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Return (θ, μ, logvar) for a batch of counts (dense or CSR)."""
        if isinstance(bow, CSRBatch):
            # O(nnz) cast sharing the structure arrays; stays sparse into
            # the encoder.
            bow_t: Tensor | CSRBatch = bow.astype(get_default_dtype())
        else:
            bow_t = Tensor(np.asarray(bow), dtype=get_default_dtype())
        mu, logvar = self.encoder(bow_t)
        if sample and self.training:
            eps = Tensor(self._rng.standard_normal(mu.shape), dtype=mu.data.dtype)
            z = mu + (logvar * 0.5).exp() * eps
        else:
            z = mu
        theta = F.softmax(z, axis=1)
        return theta, mu, logvar

    def loss_on_batch(
        self, bow: np.ndarray | CSRBatch
    ) -> tuple[Tensor, dict[str, float]]:
        """Total training loss for one bag-of-words batch, plus components.

        ``bow`` arrives in whichever format the
        :class:`~repro.data.loaders.BatchIterator` chose — dense on the
        reference path, :class:`~repro.tensor.sparse.CSRBatch` on the
        sparse fast path.  Loss values agree to ≤1e-6 between the two.

        The composition itself lives in the model's
        :class:`~repro.objectives.base.ObjectiveStack`: base ELBO plus
        every enabled regularizer term (the guard's ELBO-only degradation
        disables terms one by one).
        """
        return self.objectives.compute(self, bow)

    def fit(
        self, corpus: Corpus, callbacks: Sequence["Callback"] = ()
    ) -> "NeuralTopicModel":
        """Train on ``corpus``: ``Trainer().fit(self, corpus, callbacks=...)``.

        ``callbacks`` (:class:`repro.training.callbacks.Callback`) observe
        the epoch loop; any returning True from ``on_epoch_end`` stops
        training early.  Guarded, checkpointed, fault-injected or resumed
        runs go through :class:`repro.training.trainer.Trainer` with a
        :class:`~repro.training.trainer.RunSpec`.
        """
        # Imported lazily: repro.training.__init__ imports the protocol
        # module, which imports this module — a module-level import here
        # would be circular.
        from repro.training.trainer import Trainer

        Trainer().fit(self, corpus, callbacks=callbacks)
        return self

    def on_fit_start(self, corpus: Corpus) -> None:
        """Hook run before training.

        The default prepares the objective stack — corpus-dependent term
        state (NPMI kernels, tf-idf tables, private RNG streams) is built
        here, which is what keeps :class:`ObjectiveSpec`s plain picklable
        data until fit time.  Subclasses adding their own setup should
        call ``super().on_fit_start(corpus)``.
        """
        self.objectives.prepare(self, corpus)

    # ------------------------------------------------------------------
    # checkpoint / resume support
    # ------------------------------------------------------------------
    def rng_streams(self) -> dict[str, np.random.Generator]:
        """Every RNG stream training consumes (for checkpoint/resume).

        Subclasses with additional streams (e.g. ContraTopic's Gumbel
        noise generator) extend this mapping; bitwise-consistent resume
        requires every stream to be captured.  Objective terms holding a
        private stream (e.g. a spec-attached contrastive or VICReg term)
        surface it here as ``objective_<term>``.
        """
        streams = {"model": self._rng}
        if self._objectives is not None:
            streams.update(self._objectives.rng_streams())
        return streams

    def training_state(self) -> dict:
        """JSON-serializable snapshot of the non-parameter training state.

        Travels as ``trainer_state`` in format-v2 checkpoints
        (:func:`repro.io.save_checkpoint`); a run whose
        :class:`~repro.training.trainer.RunSpec` sets ``resume_from``
        restores it via
        :func:`repro.training.trainer.restore_training_state`.  Delegates
        to :func:`repro.training.trainer.capture_training_state`, which
        reads the :class:`~repro.training.trainer.TrainState` the engine
        attaches as ``self._trainer``.
        """
        from repro.training.trainer import capture_training_state

        return capture_training_state(self)

    # ------------------------------------------------------------------
    # TopicModel interface
    # ------------------------------------------------------------------
    def topic_word_matrix(self) -> np.ndarray:
        self._require_fitted()
        with no_grad():
            return self.beta().data.copy()

    def transform(self, corpus: Corpus) -> np.ndarray:
        self._require_fitted()
        # Request validation: the serving front door (repro.serving) relies
        # on these being precise errors rather than downstream shape
        # explosions deep inside the encoder.
        if len(corpus) == 0:
            raise CorpusError(
                "transform received an empty batch: the corpus contains "
                "no documents"
            )
        if corpus.vocab_size != self.vocab_size:
            raise ShapeError(
                f"transform received documents indexed against a "
                f"vocabulary of size {corpus.vocab_size}, but "
                f"{type(self).__name__} was built for vocabulary size "
                f"{self.vocab_size}; re-index the documents with the "
                "model's own vocabulary"
            )
        # One eval forward on plain arrays (VaeEncoder.infer_theta): it
        # reads no module mode, so a validation callback calling
        # transform() mid-fit leaves dropout and batch-norm statistics
        # exactly as training set them.
        infer = self.encoder.infer_theta
        batch_size = self.config.batch_size
        dtype = get_default_dtype()
        thetas: list[np.ndarray] = []
        if get_sparse_policy().use_sparse(corpus.bow_density()):
            # Sparse fast path: contiguous eval batches are zero-copy CSR
            # row views; a batch denser than the threshold falls back to
            # dense for that batch only.
            csr = corpus.bow_csr(dtype=dtype)
            for start in range(0, len(corpus), batch_size):
                batch = csr.slice_rows(start, start + batch_size)
                if batch.density >= dtypes.SPARSE_DENSITY_THRESHOLD:
                    batch = batch.toarray()
                thetas.append(infer(batch))
        else:
            bow = corpus.bow_matrix(dtype=dtype)
            for start in range(0, bow.shape[0], batch_size):
                thetas.append(infer(bow[start : start + batch_size]))
        return thetas[0] if len(thetas) == 1 else np.concatenate(thetas, axis=0)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")

"""Layers required by the paper's models.

The paper's encoder is "a three-layer perceptron of 800 hidden units and
SeLU as the activation function, followed by a dropout layer (rate = 0.5)
and a batch norm layer" — everything needed for that (and for the baseline
architectures) lives here.

Besides the :class:`~repro.tensor.tensor.Tensor` ``forward`` that training
differentiates, each layer has ``infer``: its eval-mode forward on plain
arrays (dropout off, batch norm by its running statistics), whatever
``training`` says.  ``infer`` calls the same :mod:`repro.tensor.kernels`
function as ``forward``, so the two agree bit for bit; it builds no graph
node and walks no module modes, which is what makes ``transform`` cheap.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor import fused, kernels
from repro.tensor.sparse import CSRBatch, transpose_contiguous
from repro.tensor.tensor import Tensor

def _identity(x):
    return x


#: name -> (Tensor op, its forward on plain arrays).
_ACTIVATIONS: dict[
    str, tuple[Callable[[Tensor], Tensor], Callable[[np.ndarray], np.ndarray]]
] = {
    "relu": (F.relu, kernels.relu),
    "selu": (F.selu, kernels.selu),
    "tanh": (F.tanh, np.tanh),
    "sigmoid": (F.sigmoid, kernels.sigmoid),
    "softplus": (F.softplus, kernels.softplus),
    "gelu": (F.gelu, kernels.gelu),
    "leaky_relu": (F.leaky_relu, kernels.leaky_relu),
    "identity": (_identity, _identity),
}


def _activation_pair(name: str):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from None


def get_activation(name: str) -> Callable[[Tensor], Tensor]:
    """Look up an activation function by name."""
    return _activation_pair(name)[0]


class Linear(Module):
    """Affine map ``y = x W^T + b`` with Xavier-uniform initialisation.

    :meth:`infer` on a CSR batch multiplies by a C-contiguous ``W^T``
    cached against the weight array it was copied from.  Every optimizer
    step and :meth:`~repro.nn.module.Module.load_state_dict` rebind
    ``weight.data`` to a new array, so a stale copy is never served; an
    in-place write to ``weight.data`` would not be seen.
    """

    #: (weight array, its C-contiguous transpose), swapped as one tuple so
    #: a concurrent reader never pairs one array with another's copy.
    _weight_t: tuple[np.ndarray, np.ndarray] | None = None

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def _check(self, x) -> None:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected last dim {self.in_features}, got {x.shape}"
            )

    def forward(self, x: Tensor) -> Tensor:
        self._check(x)
        return fused.linear(x, self.weight, self.bias)

    def infer(self, x: np.ndarray | CSRBatch) -> np.ndarray:
        self._check(x)
        bias = None if self.bias is None else self.bias.data
        weight = self.weight.data
        if not isinstance(x, CSRBatch):
            return kernels.linear(x, weight, bias)
        cached = self._weight_t
        if cached is None or cached[0] is not weight:
            cached = self._weight_t = (weight, transpose_contiguous(weight))
        return kernels.linear_csr(x, cached[1], bias)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep).astype(x.data.dtype) / keep
        return x * Tensor(mask)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x


class BatchNorm1d(Module):
    """Batch normalisation over the feature axis of ``(batch, features)``.

    Running statistics are tracked with exponential moving averages and used
    in eval mode, matching the standard semantics.
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        affine: bool = True,
    ):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.affine = affine
        if affine:
            self.weight = Parameter(init.ones((num_features,)))
            self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _check(self, x) -> None:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm1d expected (batch, {self.num_features}), got {x.shape}"
            )

    def forward(self, x: Tensor) -> Tensor:
        self._check(x)
        # The fused kernel updates the running statistics in place
        # (training mode) and reads them as constants in eval mode.
        return fused.batch_norm(
            x,
            running_mean=self.running_mean,
            running_var=self.running_var,
            weight=self.weight if self.affine else None,
            bias=self.bias if self.affine else None,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def infer(self, x: np.ndarray) -> np.ndarray:
        self._check(x)
        out, _, _ = kernels.batch_norm_eval(
            x,
            self.running_mean,
            self.running_var,
            self.weight.data if self.affine else None,
            self.bias.data if self.affine else None,
            self.eps,
        )
        return out


class Identity(Module):
    """No-op module, useful as a placeholder."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Activation(Module):
    """Wrap a named activation function as a module."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self._fn, self._array_fn = _activation_pair(name)

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self._array_fn(x)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[str] = []
        for i, module in enumerate(modules):
            name = f"layer{i}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def infer(self, x):
        for name in self._order:
            x = getattr(self, name).infer(x)
        return x

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """Multi-layer perceptron with a uniform activation between layers.

    ``sizes`` gives the full chain of widths, e.g. ``[V, 800, 800, 800]``
    builds the paper's three-layer 800-unit encoder trunk.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "selu",
        dropout: float = 0.0,
        final_activation: bool = True,
    ):
        super().__init__()
        if len(sizes) < 2:
            raise ConfigError("MLP needs at least input and output sizes")
        layers: list[Module] = []
        n_affine = len(sizes) - 1
        for i in range(n_affine):
            layers.append(Linear(sizes[i], sizes[i + 1], rng))
            is_last = i == n_affine - 1
            if not is_last or final_activation:
                layers.append(Activation(activation))
                if dropout > 0.0:
                    layers.append(Dropout(dropout, rng))
        self.body = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)

    def infer(self, x):
        return self.body.infer(x)

"""Neural-network layers and optimizers built on :mod:`repro.tensor`.

This package plays the role of ``torch.nn`` + ``torch.optim`` for the
reproduction: a :class:`Module` tree with named parameters, the layers the
paper's models need (Linear, BatchNorm1d, Dropout, the activation zoo), and
the optimizers (Adam — the paper's choice — plus SGD).
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Linear,
    Dropout,
    BatchNorm1d,
    Sequential,
    Identity,
    Activation,
    MLP,
)
from repro.nn import init
from repro.nn.optim import Optimizer, SGD, Adam, clip_grad_norm

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Dropout",
    "BatchNorm1d",
    "Sequential",
    "Identity",
    "Activation",
    "MLP",
    "init",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
]

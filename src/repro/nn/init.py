"""Weight initialisation schemes.

All initializers take an explicit ``numpy.random.Generator`` so that model
construction is fully deterministic under a seed — a requirement for the
paper's three-seed evaluation protocol.

Arrays are produced in the current default dtype (see
:mod:`repro.tensor.dtypes`), so models built under a ``float32`` policy get
float32 parameters end to end.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.dtypes import get_default_dtype


def xavier_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = gain * sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(get_default_dtype(), copy=False)


def normal(
    shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.02
) -> np.ndarray:
    """Plain N(0, std^2) initialisation (used for embedding tables)."""
    return rng.normal(0.0, std, size=shape).astype(get_default_dtype(), copy=False)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=get_default_dtype())


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight of the given shape."""
    if len(shape) < 1:
        raise ValueError("initialisation requires at least a 1-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out

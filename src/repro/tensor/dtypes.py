"""Floating-point dtype policy for the autodiff engine.

Historically every :class:`~repro.tensor.tensor.Tensor` was pinned to
float64.  That is still the default (the finite-difference gradient checks
need the precision), but training-scale runs can opt into float32, which
halves memory traffic through the O(K·V²) contrastive matmuls and lets the
BLAS kernels run in single precision.

The policy is a process-wide default, settable three ways:

- the ``REPRO_DTYPE`` environment variable (``float32``/``float64``),
  read once at import time;
- :func:`set_default_dtype` for a persistent switch;
- the :func:`default_dtype` context manager for a scoped switch (used by
  :func:`repro.tensor.gradcheck.gradcheck`, which always pins float64).

Only the *default construction* dtype changes.  Gradients always adopt the
dtype of the tensor they flow into, so a graph stays homogeneous in
whatever precision its leaves were created with.

This module also hosts the **sparse dispatch policy**
(:class:`SparsePolicy`), the second axis of numeric configuration: whether
bag-of-words batches travel through the pipeline as dense arrays or as
:class:`~repro.tensor.sparse.CSRBatch` views feeding the sparse fused
kernels.  Like the dtype policy it is thread-local with a process-wide
seed, switched on or off via the ``REPRO_SPARSE`` environment variable,
:func:`set_sparse_policy`, or the scoped :func:`sparse_policy` context
manager.  The density at which dispatch goes dense is the measured
constant :data:`SPARSE_DENSITY_THRESHOLD`, not a setting.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
from typing import Iterator

import numpy as np

from repro.errors import ConfigError

#: Accepted spellings for :func:`resolve_dtype`.
SUPPORTED_DTYPES: dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

_ENV_VAR = "REPRO_DTYPE"

# Thread-local so parallel test workers / guard threads cannot race a
# scoped override; the process default seeds each thread's view.
_STATE = threading.local()
_PROCESS_DEFAULT = np.dtype(np.float64)


def resolve_dtype(dtype: str | np.dtype | type | None) -> np.dtype:
    """Normalise ``dtype`` to a supported ``np.dtype``.

    Accepts ``"float32"``/``"float64"`` strings (case-insensitive),
    ``np.float32``/``np.float64`` and their ``np.dtype`` forms, or ``None``
    for the current default.  Anything else raises
    :class:`~repro.errors.ConfigError` — a typo in ``REPRO_DTYPE`` should
    fail loudly, not silently train in the wrong precision.
    """
    if dtype is None:
        return get_default_dtype()
    if isinstance(dtype, str):
        key = dtype.strip().lower()
        if key in SUPPORTED_DTYPES:
            return SUPPORTED_DTYPES[key]
        raise ConfigError(
            f"unsupported dtype {dtype!r}; expected one of "
            f"{sorted(SUPPORTED_DTYPES)}"
        )
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:  # e.g. dtype=object()
        raise ConfigError(f"unsupported dtype {dtype!r}") from exc
    if resolved.name in SUPPORTED_DTYPES:
        return SUPPORTED_DTYPES[resolved.name]
    raise ConfigError(
        f"unsupported dtype {resolved.name!r}; expected one of "
        f"{sorted(SUPPORTED_DTYPES)}"
    )


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with (absent an explicit cast)."""
    return getattr(_STATE, "dtype", _PROCESS_DEFAULT)


def set_default_dtype(dtype: str | np.dtype | type) -> np.dtype:
    """Set the process-wide default construction dtype; returns it."""
    global _PROCESS_DEFAULT
    resolved = resolve_dtype(dtype)
    _PROCESS_DEFAULT = resolved
    _STATE.dtype = resolved
    return resolved


@contextlib.contextmanager
def default_dtype(dtype: str | np.dtype | type) -> Iterator[np.dtype]:
    """Scoped override of the default dtype (restores the previous one)."""
    previous = get_default_dtype()
    _STATE.dtype = resolve_dtype(dtype)
    try:
        yield _STATE.dtype
    finally:
        _STATE.dtype = previous


def _init_from_env() -> None:
    value = os.environ.get(_ENV_VAR)
    if value:
        set_default_dtype(value)


_init_from_env()


# ---------------------------------------------------------------------------
# Sparse dispatch policy
# ---------------------------------------------------------------------------

_SPARSE_ENV_VAR = "REPRO_SPARSE"

#: Density (nonzero fraction) at and above which a corpus or batch stays
#: dense.  Measured crossover, not a knob: below it the CSR kernels win
#: (the encoder linear drops from O(B·V·H) to O(nnz·H)); above it the
#: gather/scatter overhead erases the saving and dense BLAS is faster
#: (``repro bench --suite sparse``, docs/PERFORMANCE.md §Sparse fast
#: path).  Callers read it through this module at call time.  Independent
#: of ``fused._GEMM_DECODE_DENSITY``, which picks the decode of a batch
#: that is already CSR.
SPARSE_DENSITY_THRESHOLD = 0.25

_TRUE_SPELLINGS = frozenset({"1", "true", "yes", "on"})
_FALSE_SPELLINGS = frozenset({"0", "false", "no", "off"})


@dataclasses.dataclass(frozen=True)
class SparsePolicy:
    """Whether (and when) batches take the CSR fast path.

    Attributes
    ----------
    enabled:
        Master switch.  ``False`` forces the dense reference path
        everywhere (the ``REPRO_SPARSE=0`` escape hatch).
    """

    enabled: bool = True

    def use_sparse(self, density: float) -> bool:
        """True when data of the given density should take the CSR path:
        the policy is on and ``density`` is *strictly below*
        :data:`SPARSE_DENSITY_THRESHOLD`."""
        return self.enabled and density < SPARSE_DENSITY_THRESHOLD


_SPARSE_STATE = threading.local()
_PROCESS_SPARSE_POLICY = SparsePolicy()


def get_sparse_policy() -> SparsePolicy:
    """The active sparse dispatch policy for this thread."""
    return getattr(_SPARSE_STATE, "policy", _PROCESS_SPARSE_POLICY)


def set_sparse_policy(policy: SparsePolicy) -> SparsePolicy:
    """Set the process-wide sparse policy; returns it."""
    global _PROCESS_SPARSE_POLICY
    if not isinstance(policy, SparsePolicy):
        raise ConfigError(
            f"expected a SparsePolicy, got {type(policy).__name__}"
        )
    _PROCESS_SPARSE_POLICY = policy
    _SPARSE_STATE.policy = policy
    return policy


@contextlib.contextmanager
def sparse_policy(enabled: bool | None = None) -> Iterator[SparsePolicy]:
    """Scoped override of the sparse policy (restores the previous one).

    ``enabled=None`` keeps the currently active switch.
    """
    previous = get_sparse_policy()
    _SPARSE_STATE.policy = SparsePolicy(
        enabled=previous.enabled if enabled is None else bool(enabled)
    )
    try:
        yield _SPARSE_STATE.policy
    finally:
        _SPARSE_STATE.policy = previous


def _parse_bool_env(name: str, raw: str) -> bool:
    value = raw.strip().lower()
    if value in _TRUE_SPELLINGS:
        return True
    if value in _FALSE_SPELLINGS:
        return False
    raise ConfigError(
        f"{name}={raw!r} is not a recognised boolean "
        f"(use one of {sorted(_TRUE_SPELLINGS | _FALSE_SPELLINGS)})"
    )


def _init_sparse_from_env() -> None:
    # Always start from the built-in defaults, not the current policy:
    # re-initialising after an env var was *removed* must fall back to
    # the default, exactly as a fresh import would.
    enabled = SparsePolicy().enabled
    raw_enabled = os.environ.get(_SPARSE_ENV_VAR)
    if raw_enabled is not None and raw_enabled.strip():
        enabled = _parse_bool_env(_SPARSE_ENV_VAR, raw_enabled)
    set_sparse_policy(SparsePolicy(enabled=enabled))


_init_sparse_from_env()

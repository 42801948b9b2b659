"""Op-level profiling hooks for the autodiff engine.

:func:`profile_ops` wraps every operation listed in
:data:`repro.tensor.tensor.PROFILED_TENSOR_OPS`,
:data:`repro.tensor.tensor.PROFILED_MODULE_OPS`,
:data:`repro.tensor.functional.PROFILED_FUNCTIONAL_OPS`,
:data:`repro.tensor.fused.PROFILED_FUSED_OPS` and :data:`PROFILED_CORE_OPS`
with a shim that records, per op:

* ``op/<name>`` (timer)            — forward wall-time
* ``op/<name>.backward`` (timer)   — wall-time of the op's backward closure
* ``op/<name>.calls`` (counter)    — forward invocations
* ``op/<name>.bytes`` (counter)    — bytes allocated for the output array

The shims are installed by *swapping class and module attributes* and are
removed again when no block is active, so the disabled path runs the
original, unwrapped functions — zero overhead when profiling is off, and
zero numerical impact when it is on (the shim calls the original exactly
once and only observes the result).

Blocks **nest**: the attribute swap happens once, at the outermost entry,
and every active block's registry receives the recorded metrics.  This is
what lets the benchmark suite keep a session-wide ops table (for
``BENCH_suite.json``) while individual benchmarks run their own focused
``profile_ops`` sections.  An op's backward closure is attributed to the
blocks that were active when its *forward* ran, which keeps attribution
stable even when ``backward()`` fires after an inner block has exited.

Profiling is process-global (it patches the shared classes/modules) and
not thread-safe — profile single-threaded sections only.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Iterator

from repro.core import contrastive as _contrastive
from repro.core import subset_sampling as _subset_sampling
from repro.telemetry.core import MetricsRegistry
from repro.tensor import functional as _functional
from repro.tensor import fused as _fused
from repro.tensor import tensor as _tensor
from repro.tensor.tensor import (
    PROFILED_MODULE_OPS,
    PROFILED_TENSOR_OPS,
    Tensor,
)

#: Key prefix every op-hook metric is recorded under.
OP_PREFIX = "op/"

#: Timer key for full reverse-mode graph traversals.
BACKWARD_PASS_KEY = "autograd/backward_pass"

#: The paper's single-node kernels outside :mod:`repro.tensor`, as
#: ``(module, function)`` pairs: the relaxed top-k sampler (Eqs. 3-5) and
#: the contrastive loss (Eq. 2).  Each reports one ``op/<function>`` row,
#: forward and backward.  Callers reach them through the module attribute
#: (see :mod:`repro.objectives.contrastive`), which is what gets swapped.
PROFILED_CORE_OPS: tuple[tuple[object, str], ...] = (
    (_subset_sampling, "relaxed_topk_sample"),
    (_contrastive, "topic_contrastive_loss"),
)

# The stack of active registries; module-global so the installed shims can
# fan recorded metrics out to every enclosing profile_ops block.
_STACK: list[MetricsRegistry] = []

# Attribute swaps made by the outermost block, unwound when it exits.
_SAVED: list[tuple[object, str, object]] = []


def is_profiling() -> bool:
    """Whether at least one :func:`profile_ops` block is currently active."""
    return bool(_STACK)


def op_label(attribute_name: str) -> str:
    """Human-readable op name: ``__matmul__`` -> ``matmul``."""
    return attribute_name.strip("_")


def _wrap_op(fn, label: str):
    """Build the timing/counting shim around one forward function."""
    key = OP_PREFIX + label
    backward_key = key + ".backward"
    calls_key = key + ".calls"
    bytes_key = key + ".bytes"

    @functools.wraps(fn)
    def profiled(*args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        registries = tuple(_STACK)
        for registry in registries:
            registry.record_seconds(key, elapsed, absolute=True)
            registry.count(calls_key, absolute=True)
        if isinstance(out, Tensor):
            for registry in registries:
                registry.count(bytes_key, out.data.nbytes, absolute=True)
            inner = out._backward
            if inner is not None:

                def timed_backward(grad, _inner=inner, _regs=registries):
                    t0 = time.perf_counter()
                    _inner(grad)
                    elapsed_b = time.perf_counter() - t0
                    for registry in _regs:
                        registry.record_seconds(
                            backward_key, elapsed_b, absolute=True
                        )

                out._backward = timed_backward
        return out

    profiled.__profiled_original__ = fn
    return profiled


def _wrap_backward_pass(fn):
    """Time whole ``Tensor.backward`` traversals (closures included)."""

    @functools.wraps(fn)
    def profiled(self, grad=None):
        start = time.perf_counter()
        result = fn(self, grad)
        elapsed = time.perf_counter() - start
        for registry in tuple(_STACK):
            registry.record_seconds(BACKWARD_PASS_KEY, elapsed, absolute=True)
            registry.count(BACKWARD_PASS_KEY + ".calls", absolute=True)
        return result

    profiled.__profiled_original__ = fn
    return profiled


def _install_shims() -> None:
    def install(owner, attribute: str, wrapper) -> None:
        _SAVED.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    for name in PROFILED_TENSOR_OPS:
        install(Tensor, name, _wrap_op(getattr(Tensor, name), op_label(name)))
    install(Tensor, "backward", _wrap_backward_pass(Tensor.backward))
    for name in PROFILED_MODULE_OPS:
        install(_tensor, name, _wrap_op(getattr(_tensor, name), op_label(name)))
    # Fused kernels before their functional aliases: both module attributes
    # point at the same raw function, so each gets its own shim around the
    # unwrapped original and a call through either records exactly once.
    for name in _fused.PROFILED_FUSED_OPS:
        install(_fused, name, _wrap_op(getattr(_fused, name), op_label(name)))
    for name in _functional.PROFILED_FUNCTIONAL_OPS:
        install(
            _functional, name, _wrap_op(getattr(_functional, name), op_label(name))
        )
    for module, name in PROFILED_CORE_OPS:
        install(module, name, _wrap_op(getattr(module, name), op_label(name)))


def _uninstall_shims() -> None:
    while _SAVED:
        owner, attribute, original = _SAVED.pop()
        setattr(owner, attribute, original)


@contextlib.contextmanager
def profile_ops(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Enable op-level profiling of the autodiff engine inside a block.

    Blocks nest: the shims are installed once by the outermost block and
    every active block's registry receives the metrics, so a suite-wide
    profiling session and a benchmark-local one can overlap.

    Parameters
    ----------
    registry:
        Sink for the recorded metrics.  A fresh :class:`MetricsRegistry`
        is created (and yielded) when omitted.

    Yields
    ------
    The registry collecting ``op/*`` timers and counters.
    """
    registry = registry if registry is not None else MetricsRegistry()
    if not _STACK:
        _install_shims()
    _STACK.append(registry)
    try:
        yield registry
    finally:
        _STACK.remove(registry)
        if not _STACK:
            _uninstall_shims()

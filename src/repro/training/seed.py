"""Deterministic seeding helpers.

Every stochastic component in the library takes an explicit
``numpy.random.Generator`` or integer seed; these helpers centralize the
conventions so multi-seed experiment sweeps are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np


def spawn_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """An independent generator for (seed, stream).

    Uses :class:`numpy.random.SeedSequence` spawning so distinct streams
    are statistically independent even for adjacent seeds.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def spawn_task_seed(seed: int, task_index: int, stream: int = 0) -> int:
    """A stable integer seed for task ``task_index`` of a fan-out.

    Extends the :func:`spawn_rng` convention by one spawn-key level —
    ``(stream, task_index)`` — so every task of a parallel map draws from
    its own statistically-independent stream.  The derivation depends only
    on ``(seed, stream, task_index)``, never on which worker process runs
    the task or in what order tasks complete, which is what makes
    :mod:`repro.parallel` results identical across worker counts.
    """
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(stream, task_index))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def spawn_task_rng(seed: int, task_index: int, stream: int = 0) -> np.random.Generator:
    """The generator form of :func:`spawn_task_seed` (same spawn key)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream, task_index))
    )

"""Reference-speed timing for a machine whose CPU speed drifts.

On a small shared host the same code runs up to 45% slower for stretches
of a minute or more, with no steal time recorded: the CPU itself is
slower while the host is busy.  Ten runs of ten seconds then spread by
10-25%, too wide to resolve a 10% change.  So the benchmark also times a
fixed probe — a short pure-Python loop plus a small float32 matrix
product, the code mix of the workloads — next to the work, and reports
compute-bound timings at the *reference speed*: a duration measured while
the probe ran at speed ``s`` (its rate over :data:`REFERENCE_RATE`)
counts as ``duration × s``.  Over 1,200 training epochs this cut the
spread of 10-second means from 9% to 2%.

A change to the program moves the work, not the probe, so its effect
shows in full.  Serving latency mixes computing with timed waits (the
batching window, the gaps between arrivals), so the serving workload
stretches those waits by ``1/s`` as well before it scales its latencies
(see :class:`perfbench.workloads.Serve`).
"""

from __future__ import annotations

import time

import numpy as np

#: Probe iterations per second on the 2-CPU development machine at full
#: speed; it only fixes the scale the normalised timings are quoted in.
REFERENCE_RATE = 8000.0
PROBE_SECONDS = 0.01


class Pace:
    """Samples the current CPU speed relative to the reference speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((200, 64), dtype=np.float32)
        self._b = rng.random((64, 500), dtype=np.float32)
        #: Every speed sampled so far (reported in the run's extras).
        self.samples: list[float] = []

    def speed(self) -> float:
        """Run the probe for :data:`PROBE_SECONDS`; its rate over the reference."""
        start = time.perf_counter()
        iterations, elapsed = 0, 0.0
        while elapsed < PROBE_SECONDS:
            for _ in range(2000):
                pass
            self._a @ self._b
            iterations += 1
            elapsed = time.perf_counter() - start
        speed = iterations / elapsed / REFERENCE_RATE
        self.samples.append(speed)
        return speed


def at_reference(seconds, speeds) -> np.ndarray:
    """Durations scaled to the reference speed.

    ``speeds`` has one more entry than ``seconds``: the probe before the
    first operation and after each one; an operation runs at the mean of
    the probes on either side of it.
    """
    speeds = np.asarray(speeds, dtype=float)
    return np.asarray(seconds, dtype=float) * (speeds[:-1] + speeds[1:]) / 2.0
"""In-memory span tracing for the benchmark's traced run.

Spans are recorded from outside the program: :meth:`Tracer.wrap` swaps a
public function or method of a ``repro`` layer for a wrapper that opens a
span around each call, and :meth:`Tracer.restore` puts the original back.
Nothing under ``src/`` knows it is being traced.

A span records its name, start, end, parent and trace id.  The parent is
the innermost span still open *on the same thread* (each thread keeps its
own stack, so a registry reload on a worker thread never nests under the
serving loop's spans); a root span starts a new trace id that its
descendants inherit.  Spans measured elsewhere — a request's life in the
load generator, which interleaves with others on the event loop — are
added flat with :meth:`Tracer.record`.

Self time is a span's duration minus the durations of its direct
children, so summing self time over every span of one name charges each
interval of wall time to exactly one layer.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np


@dataclass
class Span:
    """One timed interval of one layer."""

    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = field(default=None, repr=False)
    trace: int = 0
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """The untraced run's tracer: every call-site span is a no-op."""

    enabled = False

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


class Tracer:
    """Collects spans in memory; see the module docstring."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        #: ``owner.attr`` names that could not be wrapped (renamed or
        #: removed by a later change); their layer metrics read 0.
        self.missing: list[str] = []
        self._clock = clock
        self._local = threading.local()
        self._trace_ids = itertools.count()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        trace = parent.trace if parent is not None else next(self._trace_ids)
        span = Span(name, self._clock(), parent=parent, trace=trace)
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the ``with`` block as one span (nested under any open one)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> Span:
        """Add a root span timed by the caller (no stack, its own trace id)."""
        span = Span(name, start, end, trace=next(self._trace_ids), attrs=attrs)
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs_of: Callable[[tuple, Any], dict] | None = None,
    ) -> None:
        """Trace every call of ``owner.attr`` as a span named ``name``.

        ``owner`` is a class or a module; only an attribute defined on the
        owner itself is wrapped, so wrapping a base class and a subclass
        that overrides it yields nested spans, never a double wrap.
        ``attrs_of(args, result)`` may attach attributes to the span.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
                if attrs_of is not None:
                    span.attrs = attrs_of(args, result)
                return result
            finally:
                self._close(span)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def export(self, path: Path) -> None:
        """Write every span as JSON (parents as indices into the list).

        Attributes whose name starts with ``_`` are working data for the
        run (object identities) and stay out of the file.
        """
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = []
        for s in self.spans:
            attrs = {k: v for k, v in (s.attrs or {}).items() if not k.startswith("_")}
            rows.append(
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index[id(s.parent)] if s.parent is not None else None,
                    "trace": s.trace,
                    **({"attrs": attrs} if attrs else {}),
                }
            )
        path.write_text(json.dumps({"spans": rows}))


@contextlib.contextmanager
def after_each_call(owner: Any, attr: str, hook: Callable[[Any], None]) -> Iterator[None]:
    """Call ``hook(result)`` after each call of ``owner.attr`` while active.

    Used with tracing off, to read a value the program already returns
    (the per-task timings of a parallel map) or to sample the CPU speed
    between tasks, without timing anything.
    """
    original = vars(owner)[attr]

    @functools.wraps(original)
    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        hook(result)
        return result

    setattr(owner, attr, observed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def named(spans: Iterable[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def self_seconds(spans: list[Span], name: str) -> float:
    """Σ over spans called ``name`` of duration minus direct children."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.seconds
    return float(
        sum(s.seconds - child_time.get(id(s), 0.0) for s in named(spans, name))
    )


def total_seconds(spans: list[Span], name: str) -> float:
    """Σ duration of the outermost spans called ``name`` (no double count)."""
    total = 0.0
    for s in named(spans, name):
        ancestor = s.parent
        while ancestor is not None and ancestor.name != name:
            ancestor = ancestor.parent
        if ancestor is None:
            total += s.seconds
    return total


def within(spans: list[Span], ancestor_name: str, name: str) -> list[Span]:
    """Spans called ``name`` that run inside a span called ``ancestor_name``."""
    found = []
    for s in named(spans, name):
        ancestor = s.parent
        while ancestor is not None and ancestor.name != ancestor_name:
            ancestor = ancestor.parent
        if ancestor is not None:
            found.append(s)
    return found


def percentile_ms(seconds: Iterable[float], q: float) -> float:
    """``q``-th percentile in milliseconds; 0.0 for no samples."""
    values = np.asarray(list(seconds), dtype=float)
    return float(np.percentile(values, q) * 1e3) if values.size else 0.0

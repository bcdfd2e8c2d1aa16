"""Spans recorded by the benchmark itself around calls into repro's layers.

A traced unit of work runs with selected public functions of ``repro``
temporarily wrapped (:func:`instrumented`), so every call opens a span
in a :class:`Tracer`. Nothing inside ``src/`` is changed or traced: the
wrappers live only for the duration of the traced unit and are removed
afterwards, so untraced units run the program exactly as shipped.

A span's *self time* is its duration minus the time covered by its
direct children, so the self times of a span tree add up to the root's
duration.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed call: name, start/end (perf_counter seconds), the index
    of the span that caused it, and the id shared by one unit's spans."""

    name: str
    start: float
    end: float
    parent: int | None
    trace: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._trace_ids = itertools.count(1)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span; a span opened inside another is its child."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            trace = (
                self.spans[parent].trace
                if parent is not None
                else next(self._trace_ids)
            )
            record = Span(name, time.perf_counter(), 0.0, parent, trace)
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of every span called ``name``."""
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        totals: dict[str, float] = {}
        for s, child_time in zip(self.spans, covered):
            totals[s.name] = totals.get(s.name, 0.0) + s.seconds - child_time
        return totals


@contextmanager
def instrumented(
    tracer: Tracer, targets: list[tuple[Any, str, Any]]
) -> Iterator[None]:
    """Wrap ``owner.attr`` for each ``(owner, attr, how)`` target.

    ``owner`` is a module or a class that defines ``attr`` itself.
    ``how`` is a span name, or a function that takes the original and
    returns its replacement. The originals are restored on exit, even
    when the traced work raises.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, how in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            replacement = (
                how(original) if callable(how) else tracer.wrap(original, how)
            )
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

"""In-memory spans recorded by the benchmark around its calls into each layer.

The spans live in the benchmark's own code: a traced pass swaps a layer
function, as seen from the module that calls it, for a wrapper that records
a span, and puts the original back afterwards.  The package itself is not
instrumented.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    op: int  # index of the operation the span belongs to
    parent: int | None  # index of the enclosing span, None for an operation
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and, for wrappers asked to keep them, call results."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.kept: dict[str, list] = {}
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, parent, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, keep: bool):
        """fn traced under `name`, or under name(*args) when name is callable."""

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if keep:
                self.kept.setdefault(label, []).append(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, patches):
        """Trace each (module, attribute, span name, keep) for the block."""
        saved = []
        try:
            for module, attr, name, keep in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, keep))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def p50_ms(self, name: str) -> float:
        values = self.durations(name)
        return 1e3 * statistics.median(values) if values else float("nan")

    def self_times(self, name: str) -> list[float]:
        """Duration of each `name` span minus the time its direct children cover."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.duration
        return [s.duration - children[i] for i, s in enumerate(self.spans) if s.name == name]

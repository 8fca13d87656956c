"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the id of the benchmark iteration it belongs to.  Spans
are kept in a list and written out once, when the run ends.

A layer's *self time* is the part of its spans' duration that no child
span covers; summing self times over every span of an operation gives
back the operation's duration, so the share of an end-to-end operation
that no layer span covers is its root span's self time over its
duration.

:class:`NullTracer` has the same surface and records nothing; the
untraced runs use it so the timed code path is identical apart from the
recording itself.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    iteration: int
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent,
            "iteration": self.iteration,
            "start": self.start,
            "end": self.end,
        }


class NullTracer:
    """The untraced recorder: every hook is a no-op."""

    enabled = False
    active = False
    iteration = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def wrap(self, owner: Any, method: str, name: str) -> None:
        pass


class Tracer(NullTracer):
    """Record nested spans on the calling thread's stack.

    Only the benchmark's main thread records spans; the checkpoint
    writer thread is timed on its own and never opens one.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.iteration = 0
        #: Off between traced cycles: spans pass straight through, so the
        #: same run also times the untraced operations (tracing overhead).
        self.active = True

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(
            span_id=len(self.spans),
            name=name,
            parent=parent.span_id if parent is not None else None,
            iteration=self.iteration,
            start=self._clock(),
        )
        self.spans.append(record)
        if parent is not None:
            parent.children.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = self._clock()
            self._stack.pop()

    def wrap(self, owner: Any, method: str, name: str) -> None:
        """Shadow ``owner.method`` with an instance attribute that opens a span.

        The program looks its collaborators' methods up on the instance
        (``journal.append``, ``queue.drain``, ``crawler.crawl_corpus``), so
        the spans nest under whichever benchmark span made the outer call.
        """
        inner = getattr(owner, method)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, method, traced)

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent is None]


def self_time(span: Span) -> float:
    """``span``'s duration minus the union of its children's intervals.

    Children on one thread nest and do not overlap, but the union is
    taken anyway so a hand-built tree with overlapping children is not
    counted twice.
    """
    covered = 0.0
    cursor = span.start
    for child in sorted(span.children, key=lambda child: child.start):
        begin = max(child.start, cursor, span.start)
        end = min(child.end, span.end)
        if end > begin:
            covered += end - begin
            cursor = end
    return span.duration - covered


def walk(span: Span) -> Iterator[Span]:
    yield span
    for child in span.children:
        yield from walk(child)


def layer_of(name: str) -> str:
    """``"core.patch"`` -> ``"core"``; root operation spans map to ``"op"``."""
    return name.split(".", 1)[0] if "." in name else "op"


def self_times_by_layer(root: Span) -> dict[str, float]:
    """Self time of every layer under ``root``; the values sum to its duration."""
    totals: dict[str, float] = {}
    for span in walk(root):
        layer = layer_of(span.name)
        totals[layer] = totals.get(layer, 0.0) + self_time(span)
    return totals


def self_times_by_name(root: Span) -> dict[str, float]:
    """Self time of every span name under ``root`` (the root included)."""
    totals: dict[str, float] = {}
    for span in walk(root):
        totals[span.name] = totals.get(span.name, 0.0) + self_time(span)
    return totals


def uncovered_share(root: Span) -> float:
    """Share of ``root``'s duration that no layer span covers."""
    if root.duration <= 0:
        return 0.0
    return self_time(root) / root.duration


def dump(spans: Iterable[Span]) -> list[dict[str, Any]]:
    return [span.to_dict() for span in spans]

"""In-memory spans, self time and the percentile reporting rule.

A span has a name, start, end, parent and the id of the document it belongs
to. Spans are kept in memory while the benchmark runs and written out when
it ends. A span opened on a worker thread that has no open span of its own
takes as parent the innermost open span of the thread that began the
document, since that thread is the one waiting on the worker.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    doc: str | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; thread-safe for the benchmark's few threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root_stack: list[Span] = []
        self.doc: str | None = None
        self.phase = "timed"
        self.spans: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def document(self, doc: str) -> Iterator[None]:
        """Mark the calling thread as the one that drives document ``doc``."""
        self.doc = doc
        self._root_stack = self._stack()
        try:
            yield
        finally:
            self.doc = None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        if stack:
            parent = stack[-1].span_id
        else:
            root = self._root_stack
            parent = root[-1].span_id if root else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        attrs["phase"] = self.phase
        record = Span(span_id, parent, name, self.doc, threading.get_ident(),
                      self._clock(), attrs=attrs)
        stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "name": s.name, "doc": s.doc,
                    "thread": s.thread, "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """Duration of ``span`` minus the part its children cover.

    Children may run on several threads and overlap one another; each moment
    of the parent's interval is subtracted at most once.
    """
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


class SpanIndex:
    """Parent/child lookups over a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str, phase: str | None = "timed") -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (phase is None or s.attrs["phase"] == phase)]

    def descendants(self, span: Span, name: str) -> list[Span]:
        found: list[Span] = []
        frontier = list(self.children.get(span.span_id, ()))
        while frontier:
            child = frontier.pop()
            if child.name == name:
                found.append(child)
            frontier.extend(self.children.get(child.span_id, ()))
        return found


MIN_BEYOND = 10


def percentile(samples: Iterable[float], q: float) -> float | None:
    """Nearest-rank percentile ``q`` (0 < q < 1), or None when not reportable.

    A percentile is reported only when at least ten samples lie beyond it,
    so that one outlier cannot set it.
    """
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]

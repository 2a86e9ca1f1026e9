"""In-memory spans recorded around calls into the program's modules.

A span has a name ``<layer>.<step>``, a start and end time, the index of
the span that was open when it began (its parent) and the request it
belongs to.  Nothing is written while spans are recorded; the caller
reads ``Tracer.spans`` when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self.enabled = True
        self._open: list[int] = []

    @contextmanager
    def paused(self):
        """Wrapped calls made inside record no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.request)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, counter=None):
        """``fn`` recorded as a span; ``counter(span, args, kwargs,
        result)`` may add counts to the span once ``fn`` returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(record, args, kwargs, result)
                return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration less the durations of its direct children.
    Spans of one thread nest, so the children never overlap."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_self_times(spans: list[Span], skip=frozenset()) -> dict[str, float]:
    """Self time summed per layer, leaving out spans named in ``skip``
    and everything under them."""
    skipped = set()
    totals: dict[str, float] = defaultdict(float)
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        if s.name in skip or s.parent in skipped:
            skipped.add(i)
            continue
        totals[s.layer] += own
    return dict(totals)


def outermost_total(spans: list[Span], name: str,
                    not_under: str | None = None) -> tuple[float, dict]:
    """Summed duration and counts of the spans called ``name`` that are
    not nested in another span of that name (nor in one called
    ``not_under``)."""
    total = 0.0
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        if s.name != name:
            continue
        ancestor, blocked = s.parent, False
        while ancestor is not None:
            if spans[ancestor].name in (name, not_under):
                blocked = True
                break
            ancestor = spans[ancestor].parent
        if blocked:
            continue
        total += s.duration
        for k, v in s.counts.items():
            counts[k] += v
    return total, dict(counts)

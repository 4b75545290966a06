"""In-memory span recording around calls into the package's layers.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when
it started (-1 for none) and the replication it belongs to. The wrapper
can keep a small extract of the call's arguments and result (``keep``), so
counts are read from return values after the run; large arrays are never
held.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    rep: int | None
    data: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]], lo: float,
                   hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


class Tracer:
    """Records a span for every call of the functions it wraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rep: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable,
             keep: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1,
                        self.rep)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if keep is not None:
                span.data = keep(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple]):
        """Replace ``owner.attr`` by a traced wrapper named ``span``.

        ``targets`` holds ``(owner, attr, span, keep)`` tuples; ``keep`` is
        None or a function of ``(args, result)`` whose value is stored on
        the span.

        Class attributes that are classmethods are wrapped through their
        function. Every original is restored on exit.
        """
        saved = []
        try:
            for owner, attr, span, keep in targets:
                raw = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__, keep))
                else:
                    new = self.wrap(span, raw, keep)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

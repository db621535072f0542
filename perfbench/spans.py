"""Spans recorded around the benchmark's calls into fdmix.

A traced round records one span per wrapped call: its name, start, end,
the span that was open when it started (its parent), and attributes such as
the network or the slot count.  Spans stay in memory until the run ends.
An untraced round uses :data:`NO_TRACE`, which hands back the program's own
functions unwrapped; untraced timings carry one null context per top-level
call and no other tracing cost.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    attrs: dict
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        stack = tracer.stack
        self.span = Span(len(tracer.spans), name, stack[-1] if stack else None, attrs)

    def __enter__(self) -> Span:
        self.tracer.spans.append(self.span)
        self.tracer.stack.append(self.span.id)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc) -> bool:
        self.span.end = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Keeps every span of one round in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def span(self, name: str, **attrs) -> _Open:
        return _Open(self, name, attrs)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with _Open(self, name, {}):
                return fn(*args, **kwargs)

        return traced


class _NoTracer:
    """Same interface as :class:`Tracer`; records nothing and wraps nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null

    def wrap(self, name: str, fn):
        return fn


NO_TRACE = _NoTracer()


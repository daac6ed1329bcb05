"""In-memory span recorder and the arithmetic over its spans.

A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``value`` an optional count measured
at the same boundary (FLOPs, bytes, graph nodes). Spans are recorded from
the benchmark's own wrappers around the library's public functions; the
library itself is not modified, and its numerics are not touched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    """Records spans around patched callables; ``restore`` undoes every patch."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _finish(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, fn, name, value_of=None):
        """``name`` is a string, or a callable ``(args, kwargs) -> str``;
        ``value_of(args, kwargs, result)`` gives the span's count."""
        begin, finish = self._begin, self._finish
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            span = begin(name if fixed else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(span)
            if value_of is not None:
                span[VALUE] = value_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name, value_of=None, target=None) -> None:
        """Replace ``module.attr`` by a traced ``target`` (default: the current attribute)."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(target or original, name, value_of))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        span[END] - span[START] - covered(children.get(i, []), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def root_of(spans: list[list], index: int) -> int:
    while spans[index][PARENT] >= 0:
        index = spans[index][PARENT]
    return index


def has_ancestor_named(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(spans: list[list], weights: list[float] | None = None) -> dict[str, dict[str, float]]:
    """Per span name: ``busy_s`` (outermost spans of that name only, so
    recursion is not counted twice), ``self_s``, ``calls`` and ``value``,
    each span counted with its weight (default 1)."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        w = 1 if weights is None else weights[i]
        entry = out.setdefault(span[NAME], {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "value": 0})
        entry["calls"] += w
        entry["self_s"] += w * selfs[i]
        entry["value"] += w * span[VALUE]
        if not has_ancestor_named(spans, i, span[NAME]):
            entry["busy_s"] += w * (span[END] - span[START])
    return out

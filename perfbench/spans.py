"""In-memory span recording around the calls into each cavsr layer.

A span is (name, start, end, parent): start and end come from
time.perf_counter, parent is the index of the enclosing span or -1. The
benchmark records spans only from its own files, by replacing a function
at the module attribute its caller looks it up under, so nothing in src/
changes. Spans stay in memory until the run ends and are written out once.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import time


def patch(stack: contextlib.ExitStack, owner, attr: str, replacement) -> None:
    """Set owner.attr to replacement until the ExitStack closes."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    stack.callback(setattr, owner, attr, original)


class Tracer:
    """Span recorder: each wrapped call appends one span, nested by call order.

    errors holds (span index, exception type) for spans that raised; counts
    holds work counted at the same boundaries by on_result callbacks.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.errors: list[tuple[int, str]] = []
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def wrap(self, fn, name: str, on_result=None):
        """fn wrapped in a span; on_result(result) may return a proxy to hand back."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((name, time.perf_counter(), 0.0, parent))
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors.append((idx, type(exc).__name__))
                raise
            finally:
                self._open.pop()
                _, start, _, _ = self.spans[idx]
                self.spans[idx] = (name, start, time.perf_counter(), parent)
            return on_result(result) if on_result is not None else result

        return traced

    def install(self, stack: contextlib.ExitStack, owner, attr: str, name: str, on_result=None) -> None:
        patch(stack, owner, attr, self.wrap(getattr(owner, attr), name, on_result))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "errors": self.errors, "counts": self.counts}, fh)


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for k_start, k_end in sorted(kids):
            lo = max(k_start, reach)
            hi = min(k_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out

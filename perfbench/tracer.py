"""Span tracer that instruments the avgrec package from the outside.

Each target is a public name looked up in the module namespace where its
caller finds it (``avgrec.solver.duhamel_sums`` for the solver's sweep,
``avgrec.averaging.duhamel_sums`` for ``apply_psi``).  While instrumented,
the name is bound to a wrapper that counts the call and records a span with
its parent; afterwards the original binding is restored.  A target whose
module or attribute does not exist is reported as absent rather than
failing, so the benchmark keeps working when the package renames or deletes
an internal step.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}


@dataclass(frozen=True)
class Target:
    """Trace calls to ``module.attribute`` as the layer ``layer``.

    ``on_return(tracer, result)`` may record a value computed from the
    wrapped function's result.
    """

    layer: str
    module: str
    attribute: str
    on_return: Callable | None = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attribute}"


class Tracer:
    """In-memory spans, call counts and recorded values of one traced operation."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.values: dict[str, list] = defaultdict(list)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[target.layer] += 1
            with self.span(target.layer):
                result = fn(*args, **kwargs)
            if target.on_return is not None:
                target.on_return(self, result)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part of
    its interval covered by its direct children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


@contextmanager
def instrument(tracer: Tracer, targets):
    """Bind every present target to a traced wrapper for the duration of the
    block; yield the qualified names of the targets that are absent."""
    saved = []
    absent = []
    try:
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                absent.append(target.qualname)
                continue
            original = getattr(module, target.attribute, None)
            if not callable(original):
                absent.append(target.qualname)
                continue
            saved.append((module, target.attribute, original))
            setattr(module, target.attribute, tracer.wrap(target, original))
        yield absent
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)

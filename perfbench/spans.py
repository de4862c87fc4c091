"""Spans and counters recorded by the benchmark around its calls into the
kit's layers.

A span has a name, a start, an end, a parent and an instance id. Spans are
kept in memory and written out when the run ends. A span's self time is
its duration minus the time its child spans and the propagator calls made
inside it cover.

Propagator calls are too many to keep one span each, so the traced run
wraps every propagator class's ``propagate`` from outside and keeps, per
class, the number of calls, the number that failed and the time spent."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from xcspkit.engine.propagators import Propagator


@dataclass
class Span:
    index: int
    name: str
    instance: str
    parent: int  # index of the parent span, -1 for a root
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and propagator calls

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instance": self.instance,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
        }


@dataclass
class PropStats:
    calls: int = 0
    fails: int = 0
    seconds: float = 0.0


def _propagator_classes():
    todo, seen = [Propagator], []
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class Tracer:
    """Records spans when ``enabled``; otherwise ``span`` costs one call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.props: dict[str, PropStats] = {}
        self.counting = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, instance: str | None = None):
        if not self.enabled:
            return nullcontext()
        return self._span(name, instance)

    @contextmanager
    def _span(self, name: str, instance: str | None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if instance is None:
            instance = parent.instance if parent else ""
        with self._lock:
            span = Span(len(self.spans), name, instance, parent.index if parent else -1, time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.duration

    @contextmanager
    def uncounted(self):
        """Propagator calls made inside still count toward span self time
        but not toward the per-class counters."""
        self.counting = False
        try:
            yield
        finally:
            self.counting = True

    @contextmanager
    def wrap_propagators(self):
        """Wrap each propagator class's ``propagate`` for the duration."""
        originals = []
        for cls in _propagator_classes():
            if "propagate" in cls.__dict__:
                originals.append((cls, cls.__dict__["propagate"]))
                cls.propagate = self._wrapped(cls.__dict__["propagate"])
        try:
            yield
        finally:
            for cls, original in originals:
                cls.propagate = original

    def _wrapped(self, original):
        tracer = self
        clock = time.perf_counter

        def propagate(prop, store):
            t0 = clock()
            ok = original(prop, store)
            dt = clock() - t0
            stack = tracer._stack()
            if stack:
                stack[-1].child_s += dt
            if tracer.counting:
                name = type(prop).__name__
                stats = tracer.props.get(name)
                if stats is None:
                    stats = tracer.props[name] = PropStats()
                stats.calls += 1
                stats.fails += not ok
                stats.seconds += dt
            return ok

        return propagate

    @contextmanager
    def wrap_attributes(self, module, spans: dict, instance_of=None):
        """Wrap functions that a module looks up at call time, such as the
        calls ``harness.run_campaign`` makes. ``spans`` maps each attribute
        to its span name; ``instance_of`` maps the first argument to an
        instance id for spans that start a thread's stack."""
        originals = {attr: getattr(module, attr) for attr in spans}
        for attr, original in originals.items():
            setattr(module, attr, self._spanned(spans[attr], original, instance_of))
        try:
            yield
        finally:
            for attr, original in originals.items():
                setattr(module, attr, original)

    def _spanned(self, span_name, original, instance_of):
        def call(first, *args, **kwargs):
            instance = instance_of(first) if instance_of and not self._stack() else None
            with self.span(span_name, instance):
                return original(first, *args, **kwargs)

        return call

"""Spans recorded from outside the program, by wrapping its functions.

A ``Tracer`` keeps every span in memory: name, start, end, parent span,
thread id and a small dict of attributes (item counts, peak memory).  The
spans are written out once, when the traced process ends.

Functions are wrapped by replacing module or class attributes, so nothing
in the package under test changes.  ``wrap_function`` also replaces every
``from module import name`` copy of the function held by the package's
other modules, because those copies are what the callers actually use.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import tracemalloc


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._memory_open = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, parent: int | None = None,
              memory: bool = False) -> dict:
        """Open a span; ``parent`` overrides this thread's open span, for
        work handed to another thread.  ``memory`` measures the span's peak
        traced allocation with tracemalloc (outermost memory span only)."""
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": parent if parent is not None else
                (stack[-1] if stack else None),
                "tid": threading.get_ident(), "attrs": {}}
        if memory:
            with self._lock:
                span["_mem"] = self._memory_open == 0
                self._memory_open += 1
                if span["_mem"]:
                    tracemalloc.start()
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        if "_mem" in span:
            with self._lock:
                if span.pop("_mem"):
                    span["attrs"]["peak_mb"] = \
                        tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                self._memory_open -= 1
        with self._lock:
            self.spans.append(span)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _interval_union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span.  Children that ran at once on several threads
    count once, so self time never goes negative."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            lo = max(s["start"], parent["start"])
            hi = min(s["end"], parent["end"])
            if hi > lo:
                children.setdefault(parent["id"], []).append((lo, hi))
    return {s["id"]: (s["end"] - s["start"])
            - _interval_union(children.get(s["id"], ()))
            for s in spans}


def replace_everywhere(original, replacement, package: str) -> int:
    """Swap every module-level reference to ``original`` inside ``package``;
    returns how many were replaced."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package
                                  or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def traced(tracer: Tracer, fn, name: str, attrs=None, memory: bool = False):
    """``fn`` wrapped in a span; ``attrs(args, kwargs, result)`` returns a
    dict stored on the span after the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.start(name, memory=memory)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if attrs is not None:
            span["attrs"].update(attrs(args, kwargs, result))
        return result

    return wrapper


def wrap_function(tracer: Tracer, module, attr: str, name: str,
                  attrs=None, memory: bool = False, package: str = "hypercut"):
    """Wrap ``module.attr`` and each by-name import of it in ``package``."""
    original = getattr(module, attr)
    wrapper = traced(tracer, original, name, attrs, memory)
    if replace_everywhere(original, wrapper, package) == 0:
        raise LookupError(f"{module.__name__}.{attr} not found in {package}")
    return wrapper


def wrap_method(tracer: Tracer, cls, attr: str, name: str, attrs=None,
                memory: bool = False):
    """Wrap a plain method, or the getter of a property, on ``cls``."""
    original = cls.__dict__[attr]
    if isinstance(original, property):
        getter = traced(tracer, original.fget, name, attrs, memory)
        setattr(cls, attr, property(getter, original.fset, original.fdel,
                                    original.__doc__))
    else:
        setattr(cls, attr, traced(tracer, original, name, attrs, memory))

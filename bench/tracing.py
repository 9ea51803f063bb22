"""Spans around the calls into levylab's layers, recorded from outside the library.

``traced(tracer, boundaries)`` replaces, for the duration of a ``with`` block, every
module attribute through which one layer calls another (``from .x import f``
leaves a reference to ``f`` in each importing module, and all of them are
swapped) with a wrapper that records a span: name, start, end and parent.
Classes are traced by wrapping their ``__init__``.  A boundary whose
function no longer exists is reported as missing instead of failing the run.

Spans stay in memory; ``summarize`` turns them into self time, call counts
and draw counts per boundary.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# boundaries that also count units of work: span name -> (position, keyword)
# of the argument holding the count
DRAW_ARGS = {"rng.counter_choice": (2, "count")}


class Tracer:
    """Collects spans as ``[name, start, end, parent_index, draws]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, draws: int = 0):
        spans, stack = self.spans, self._stack
        record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, draws]
        stack.append(len(spans))
        spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        draw_arg = DRAW_ARGS.get(name)
        span = self.span

        def wrapper(*args, **kwargs):
            draws = 0
            if draw_arg is not None:
                pos, key = draw_arg
                draws = int(args[pos] if len(args) > pos else kwargs[key])
            with span(name, draws):
                return fn(*args, **kwargs)

        return wrapper


def _levylab_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "levylab" or name.startswith("levylab.")]


@contextmanager
def traced(tracer: Tracer, boundaries: list[str]):
    """Route every call across each ``<module>.<attribute>`` boundary through ``tracer``.

    Yields the list of boundaries whose function no longer exists.
    """
    undo: list[tuple] = []
    missing: list[str] = []
    modules = _levylab_modules()
    try:
        for name in boundaries:
            modname, attr = name.split(".")
            try:
                original = getattr(importlib.import_module(f"levylab.{modname}"), attr)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            if isinstance(original, type):
                undo.append((original, "__init__", original.__init__))
                original.__init__ = tracer.wrap(name, original.__init__)
                continue
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield missing
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: total self time ``s``, ``calls`` and ``draws``."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "calls": 0, "draws": 0})
    for (name, start, end, _, draws), inner in zip(spans, child):
        entry = out[name]
        entry["s"] += end - start - inner
        entry["calls"] += 1
        entry["draws"] += draws
    return dict(out)

"""Spans around the calls into each oqwalk layer, recorded from outside the program.

``Tracer.install`` swaps every public function of the six ``oqwalk``
modules, in every module namespace that holds a reference to it, for a
wrapper that records a span. Calls a ``leaf`` module makes to its own
functions are left alone: linalg's helpers call each other once per
matrix, and spans there would outnumber the rest many times over.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.
Spans are tuples kept in memory:

    (invocation, span id, parent span id or None, name, start, end)

where ``name`` is ``<layer>.<function>`` and the layer is the module name.
"""

from __future__ import annotations

import functools
import itertools
import types
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, modules, leaves=()):
        self.modules = list(modules)
        self.leaves = {m.__name__ for m in leaves}
        self.spans: list[tuple] = []
        self.invocation = 0
        # span name -> callable(args, result), run after the span closes
        self.hooks: dict = {}
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, ids, hooks = self.spans, self._stack, self._ids, self.hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.invocation, sid, parent, name, start, end))
            hook = hooks.get(name)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        owners = {m.__name__ for m in self.modules}
        wrappers = {}
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in owners
                        or obj.__module__ == module.__name__ in self.leaves):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()


def summarize(spans) -> tuple[dict, dict, dict]:
    """Per-name inclusive time, per-name call count and per-layer self time.

    A span's self time is its duration minus the durations of its
    direct children.
    """
    child_time = defaultdict(float)
    for _inv, _sid, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for _inv, sid, _parent, name, start, end in spans:
        inclusive[name] += end - start
        calls[name] += 1
        self_time[name.split(".", 1)[0]] += end - start - child_time[sid]
    return dict(inclusive), dict(calls), dict(self_time)

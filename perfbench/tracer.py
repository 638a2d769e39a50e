"""Spans around the calls one pregeom module makes into another, installed from outside.

`install` replaces, in each layer module's namespace, every reference to a
public function of another layer module with a wrapper that records a span.
Calls inside one module are not wrapped, so a span marks a layer boundary.
The benchmark's own calls into the library go through `Tracer.wrap` too.
Spans stay in memory; `write` saves them once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import types
from collections import Counter

LAYERS = ("structures", "predimension", "pregeometry", "amalgam", "generic",
          "reduct", "geometry", "structfile", "cli")
_LAYER_MODULES = {f"pregeom.{name}" for name in LAYERS}


def _is_public_function(obj) -> bool:
    return (callable(obj) and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) in _LAYER_MODULES
            and not getattr(obj, "__name__", "_").startswith("_"))


class Tracer:
    """Span recorder.  A span is [name, start, end, parent index]; -1 marks a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._wrappers: dict[int, object] = {}

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn):
        """The traced stand-in for `fn`; one per function, shared by every caller."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            # each resumption is a span; the consumer's time between them is not
            def wrapper(*args, **kwargs):
                counts[name, "calls"] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._enter(name)
                        try:
                            item = next(inner)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            self._exit(idx)
                        counts[name, "yields"] += 1
                        yield item
                finally:
                    inner.close()
        else:
            def wrapper(*args, **kwargs):
                counts[name, "calls"] += 1
                idx = self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(idx)
                if result is True:
                    counts[name, "true"] += 1
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self) -> None:
        """Wrap every cross-module reference to a public function of a layer module."""
        modules = [importlib.import_module(name) for name in sorted(_LAYER_MODULES)]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.ModuleType) and obj.__name__ in _LAYER_MODULES \
                        and obj is not mod:
                    # `from . import structfile`: calls go through the module object
                    proxy = types.SimpleNamespace(**{
                        k: self.wrap(v) if _is_public_function(v) and v.__module__ == obj.__name__ else v
                        for k, v in vars(obj).items()})
                    setattr(mod, attr, proxy)
                elif _is_public_function(obj) and obj.__module__ != mod.__name__:
                    setattr(mod, attr, self.wrap(obj))

    def summary(self) -> dict:
        """Per function: calls, yields, calls returning True, total and self seconds."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
        out: dict = {}
        for (name, stat), value in self.counts.items():
            out.setdefault(name, {})[stat] = value
        for name in total:
            entry = out.setdefault(name, {})
            entry["total_s"] = total[name]
            entry["self_s"] = self_s[name]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

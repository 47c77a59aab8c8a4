"""In-memory span tracer that wraps qcausal's public functions from outside.

``Tracer.install`` replaces every public function (and every public method or
``__post_init__`` of a class) defined in a layer module with a wrapper, at each
place it is looked up as a module or class attribute: its home module and
every layer module that imported it by name.  Calls made through those
attributes, including calls inside qcausal, then record a span (function,
start, end, parent span, job).  ``uninstall`` puts the originals back.  The
source files are never touched.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict


class Tracer:
    def __init__(self, modules, observers=None):
        self.modules = list(modules)
        self.layers = [m.__name__.rsplit(".", 1)[1] for m in self.modules]
        self.observers = observers or {}   # "layer.function" -> result -> record
        self.names: list[str] = []          # function id -> "layer.function"
        self.spans: list = []               # (function id, start, end, parent, job)
        self.records = defaultdict(list)    # "layer.function" -> observer records
        self.job = -1
        self._stack: list[int] = []
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def _layer_of(self, fn):
        mod = getattr(fn, "__module__", "") or ""
        if not mod.startswith("qcausal."):
            return None
        layer = mod.rsplit(".", 1)[1]
        return layer if layer in self.layers else None

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        observer = self.observers.get(name)
        records = self.records[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.job)
            if observer is not None:
                records.append(observer(result))
            return result

        return traced

    def install(self):
        wrapped = {}

        def patch(owner, attr, fn, name):
            key = id(fn)
            if key not in wrapped:
                wrapped[key] = self._wrap(fn, name)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapped[key])

        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    layer = self._layer_of(obj)
                    if layer:
                        patch(module, attr, obj, f"{layer}.{obj.__name__}")
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    layer = self._layer_of(obj)
                    for mattr, meth in list(vars(obj).items()):
                        if (isinstance(meth, types.FunctionType)
                                and (mattr == "__post_init__" or not mattr.startswith("_"))):
                            patch(obj, mattr, meth, f"{layer}.{obj.__name__}.{mattr}")

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self):
        """Totals over all spans: per layer self time and calls, per function
        total time and calls."""
        child = defaultdict(float)
        for fid, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        fn_time = defaultdict(float)
        fn_calls = defaultdict(int)
        for idx, (fid, start, end, parent, job) in enumerate(self.spans):
            name = self.names[fid]
            layer = name.split(".", 1)[0]
            layer_self[layer] += (end - start) - child[idx]
            layer_calls[layer] += 1
            fn_time[name] += end - start
            fn_calls[name] += 1
        return {"layer_self_s": layer_self, "layer_calls": layer_calls,
                "fn_s": fn_time, "fn_calls": fn_calls}

    def write(self, path):
        """Spans as JSON: a name table and [function, start, end, parent, job]
        rows, with times in integer nanoseconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[fid, round((start - t0) * 1e9), round((end - t0) * 1e9), parent, job]
                for fid, start, end, parent, job in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))

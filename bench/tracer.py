"""Span tracing installed from outside the program.

``Patch`` replaces a function in every module of a package that binds it
(``from .dn import dn_fixed_point`` makes a second binding that patching
``dn`` alone would miss) and puts every binding back on ``undo``.
``Tracer`` wraps functions so that each call records a span (id, parent,
name, start, end, op) in memory and adds its self time, the span's duration
minus the time its child spans cover, to the span's layer.
"""

import functools
import sys
import time
from collections import Counter, defaultdict


class Patch:
    """Rebinds attributes across a package and restores them on ``undo``."""

    def __init__(self, package):
        self.package = package
        self._undo = []

    def modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(prefix))]

    def replace(self, original, wrapper):
        """Bind ``wrapper`` wherever a package module binds ``original``."""
        for module in self.modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self.setattr(module, key, wrapper)

    def setattr(self, obj, key, value):
        self._undo.append((obj, key, obj.__dict__[key]))
        setattr(obj, key, value)

    def undo(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)


class Tracer:
    """In-memory spans with per-layer self time and per-function counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []                 # (id, parent, name, start, end, op)
        self.self_s = defaultdict(float)      # by layer
        self.inclusive_s = defaultdict(float)  # by function name
        self.calls = Counter()                 # by function name
        self.counts = Counter()                # filled by observers
        self.op = 0
        self._stack = []                # [id, name, layer, start, child_s]
        self._next_id = 0

    @property
    def current(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][1] if self._stack else None

    def wrap(self, layer, fn, observe=None):
        """Traced version of ``fn``; ``observe(tracer, args, kwargs, result)``
        runs after a call returns, with the caller's span still current."""
        name = "%s.%s" % (layer, fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [self._next_id, name, layer, self.clock(), 0.0]
            self._next_id += 1
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                span_id, _, _, start, child_s = frame
                duration = end - start
                self.self_s[layer] += duration - child_s
                self.inclusive_s[name] += duration
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][4] += duration
                self.spans.append((span_id, parent, name, start, end, self.op))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.bench_wrapper = True
        return traced

"""Span recorder for the traced benchmark run.

The recorder wraps ehrkit's public module-level functions, and the listed
GradedPolynomial operators, at every module name they are bound to, so a
call through ``triangulation.build_polytope`` is recorded exactly like one
through ``geometry.build_polytope``.  Spans are named after the defining
module (``geometry.build_polytope``); private helpers have no span, so their
time is self time of the public function that called them.

Spans of one task are kept in memory until the task ends and are then folded
into per-name totals: calls, self time (span minus the time its child spans
cover) and a work count for the few functions that have one.  A function
that returns an iterator is counted as its items are consumed, and the time
spent producing them belongs to its span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

from workloads import scanlines

LAYERS = ("geometry", "triangulation", "ehrhart", "linalg", "gradedpoly",
          "decomposition", "gorenstein", "rational_ehrhart", "oracle")

# O(d) vector helpers called inside every inner loop: a span would cost more
# than the call, so their time stays with the caller.
UNTRACED = {"linalg.dot", "linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale",
            "geometry.as_point", "geometry.point_denominator",
            "geometry.parse_rational", "geometry.format_rational"}

# GradedPolynomial operators recorded together as one span name.
POLY_OPS = ("__add__", "__mul__", "divmod_exact", "reverse")
POLY_SPAN = "gradedpoly.ops"


def _scanlines(args, kwargs, result):
    """Scanlines one count_points call walks."""
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "closed")
    if mode == "boundary":  # delegates to a closed and an interior call
        return 0
    return scanlines(args[0], args[1])


ITEMS = object()  # work marker: count the items of the result
_END = object()

# Work counted per span name, from (args, kwargs, result) after the call.
WORK = {
    "ehrhart.fpp_lattice_points": ITEMS,
    "oracle.count_points": _scanlines,
    "triangulation.pick_generic_point": lambda args, kwargs, result: len(args[0].cells),
}


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0
    uncounted: int = 0  # calls whose work could not be counted


@dataclass
class Recorder:
    """Collects spans while a task is active; a no-op pass-through otherwise."""

    clock: callable = time.perf_counter
    # [name, start, end, parent, task, work, resumed]; `resumed` is the time
    # spent producing the items of an iterator the call returned
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    task: object = None

    def wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.task, 0, 0.0]
            self.stack.append(index)
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self.stack.pop()
            if work is ITEMS:
                if hasattr(result, "__len__"):
                    span[5] = len(result)
                elif hasattr(result, "__next__"):
                    return self._counted(index, span, result)
                else:
                    span[5] = None
            elif work is not None:
                try:
                    span[5] = work(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    span[5] = None  # a changed signature loses the count, never the call
            return result

        traced.__wrapped_span__ = name
        return traced

    def _counted(self, index, span, items):
        """Yield the items, counting them into the span and timing each step
        inside it; steps taken after the span's task ended are not recorded."""
        while True:
            live = (self.task == span[4] and index < len(self.spans)
                    and self.spans[index] is span)
            if live:
                self.stack.append(index)
                start = self.clock()
            try:
                item = next(items, _END)
            finally:
                if live:
                    span[6] += self.clock() - start
                    self.stack.pop()
            if item is _END:
                return
            if live:
                span[5] += 1
            yield item

    def take(self) -> dict[str, Totals]:
        """Fold the spans recorded so far into per-name totals and drop them."""
        length = [end - start + resumed for _, start, end, _, _, _, resumed in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += length[i]
        out: dict[str, Totals] = {}
        for i, (name, _, _, _, _, work, _) in enumerate(self.spans):
            t = out.setdefault(name, Totals())
            t.calls += 1
            t.self_s += length[i] - child[i]
            if work is None:
                t.uncounted += 1
            else:
                t.work += work
        self.spans.clear()
        return out


@dataclass
class Profile:
    """Span totals of a run, overall and per entry point."""

    totals: dict = field(default_factory=dict)    # span name -> Totals
    by_entry: dict = field(default_factory=dict)  # entry point -> [tasks, {span: calls}]

    def add(self, entry, spans):
        tasks = self.by_entry.setdefault(entry, [0, {}])
        tasks[0] += 1
        for name, t in spans.items():
            acc = self.totals.setdefault(name, Totals())
            acc.calls += t.calls
            acc.self_s += t.self_s
            acc.work += t.work
            acc.uncounted += t.uncounted
            tasks[1][name] = tasks[1].get(name, 0) + t.calls


def _layer_modules():
    return {layer: sys.modules["ehrkit." + layer] for layer in LAYERS
            if "ehrkit." + layer in sys.modules}


def _targets():
    """(span name, original function) for every public function of every layer."""
    out = []
    for layer, mod in _layer_modules().items():
        for attr, value in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__):
                continue
            name = "%s.%s" % (layer, attr)
            if name not in UNTRACED:
                out.append((name, value))
    return out


class installed:
    """Context manager that binds the recorder's wrappers into ehrkit and undoes it."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.undo = []

    def __enter__(self):
        originals = {id(fn): self.recorder.wrap(name, fn) for name, fn in _targets()}
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "ehrkit" or n.startswith("ehrkit."))]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self.undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        poly = getattr(sys.modules.get("ehrkit.gradedpoly"), "GradedPolynomial", None)
        if poly is not None:
            for op in POLY_OPS:
                if op in vars(poly):
                    self.undo.append((poly, op, vars(poly)[op]))
                    setattr(poly, op, self.recorder.wrap(POLY_SPAN, vars(poly)[op]))
        return self.recorder

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()
        return False

"""Spans around every public function of thresholdlab's five modules.

``Tracer.install`` replaces each public function by a timing wrapper in
*every* thresholdlab module that holds it, because modules import each
other's functions by name (``verify`` calls ``tridiagonalize`` through its
own global, not through ``spectra``).  Private helpers are not wrapped, so
their time lands in the self time of the public caller.  Spans are kept in
memory as (name, start, end, parent) and written out by ``write``.  Only the
calling process is traced: scans under trace must run with one worker.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "thresholdlab"
LAYERS = ("graphs", "spectra", "verify", "formats", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []  # indices of the open spans
        self._patched: list[tuple] = []
        self._summary: dict[str, tuple[int, float, float]] | None = None

    def install(self) -> None:
        wrappers = {}
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                package, _, layer = obj.__module__.rpartition(".")
                if package != PACKAGE or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        # Kept lean: the bookkeeping here lands in the caller's self time.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(index)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Function name -> (calls, total seconds, self seconds), from the spans."""
        if self._summary is None:
            starts, ends, parents = self.span_start, self.span_end, self.span_parent
            child = [0.0] * len(starts)
            for index, parent in enumerate(parents):
                if parent >= 0:
                    child[parent] += ends[index] - starts[index]
            calls = [0] * len(self.names)
            total = [0.0] * len(self.names)
            own = [0.0] * len(self.names)
            for index, nid in enumerate(self.span_name):
                duration = ends[index] - starts[index]
                calls[nid] += 1
                total[nid] += duration
                own[nid] += duration - child[index]
            self._summary = {name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)}
        return self._summary

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds); zeros for a function that does not exist."""
        return self.summary().get(name, (0, 0.0, 0.0))

    def layer_self(self, layer: str) -> float:
        return sum(own for name, (_, _, own) in self.summary().items()
                   if name.startswith(layer + "."))

    def write(self, path) -> None:
        """One CSV line per span, in order of entry.

        Times are microseconds from the first span; ``parent`` is the 0-based
        index of the enclosing span's line, -1 for a top-level span.
        """
        starts = self.span_start
        origin = min(starts) if starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_us,end_us,parent\n")
            for nid, parent, start, end in zip(self.span_name, self.span_parent,
                                               starts, self.span_end):
                fh.write(f"{self.names[nid]},{(start - origin) * 1e6:.1f},"
                         f"{(end - origin) * 1e6:.1f},{parent}\n")

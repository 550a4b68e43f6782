"""Span recording from outside the program.

The traced run swaps public callables of caforge modules for wrappers that
record one span per call: name, start, end, parent span and run id.  Spans
stay in memory until the run writes them out.  Nothing here changes what a
wrapped call computes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = defaultdict(float)
        self.run_id = -1
        self._stack = []
        self._saved = []

    def wrap(self, module, attr: str, name: str, count=None):
        """Replace ``module.attr`` by a span-recording wrapper.

        ``count(args, result, counts)`` may add counters read at the same
        boundary.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            index = len(self.spans)
            if not self._stack:  # a top-level call starts a new run
                self.run_id += 1
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.run_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(args, result, self.counts)
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, fn))

    def unwrap(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self):
        """(inclusive, self) seconds per span name.

        Calls are sequential, so a span's self time is its duration minus
        the durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, own = defaultdict(float), defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            incl[name] += end - start
            own[name] += end - start - c
        return incl, own

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, f)

"""In-memory spans recorded around calls into the library.

A span is ``(name, start, end, parent, instance)``: ``parent`` is the index
of the enclosing span (``None`` at the top) and ``instance`` names the
benchmark instance the call belongs to.  Spans are kept in a list and
written out when the run ends.  Untraced runs use :class:`NullTracer`,
whose spans cost one ``with`` statement.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class NullTracer:
    def span(self, name, instance):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, instance):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, instance)

    def durations(self) -> dict:
        """Span name -> list of durations in seconds."""
        out = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self, name) -> list:
        """Durations of ``name`` spans minus the time their child spans cover."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (n, start, end, _, _) in enumerate(self.spans) if n == name]

    def to_list(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "instance": i}
                for n, s, e, p, i in self.spans]

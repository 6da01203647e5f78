"""Spans for the traced benchmark run.

A span is recorded around each public call the benchmark makes into the
library: name, start, end, parent span and op id.  Spans stay in memory
until the run ends and are then written out as JSON lines.  A span's
self time is its duration minus the time its child spans cover, so the
self times of one op add up to the op's duration.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    op = None

    def span(self, name):
        return _NO_SPAN


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, op id]
        self.spans: list = []
        self._open: list = []
        self.op = None

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._open.pop()
            rec[2] = time.perf_counter()

    def self_times(self) -> dict:
        """Seconds of self time per span name, summed over all spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class PeakTracer:
    """Peak bytes allocated inside each span of the given layers.

    Runs under ``tracemalloc``, whose bookkeeping slows every allocation,
    so the times of a pass made with it are discarded.  Spans of the
    measured layers must not nest in one another.
    """

    op = None

    def __init__(self, layers):
        self.layers = tuple(layers)
        self.peaks = {layer: 0 for layer in self.layers}

    @contextmanager
    def span(self, name):
        layer = name.split(".")[0]
        if layer not in self.layers:
            yield
            return
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            self.peaks[layer] = max(self.peaks[layer], peak)

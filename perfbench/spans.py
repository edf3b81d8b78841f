"""Benchmark-side spans: timed intervals around calls into the program.

A :class:`SpanRecorder` keeps every span in memory -- name, start, end,
parent and request id -- and writes them out once, when the run ends.
:class:`NullRecorder` has the same interface and records nothing; the
untraced run uses it so both runs execute the same code.

A span's *self time* is its duration minus the part of its interval
covered by its child spans (children may overlap; their union counts
once).
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional


class SpanRecorder:
    active = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None, parent: Optional[int] = None):
        """Time the body as span ``name``.

        The parent defaults to the innermost open span of this recorder
        (sequential code); concurrent tasks pass ``parent`` explicitly
        and do not join the stack."""
        span_id = len(self.spans)
        nested = parent is None
        if nested and self._stack:
            parent = self._stack[-1]
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        record = {"id": span_id, "name": name, "parent": parent,
                  "request": request, "start": perf_counter(), "end": None}
        self.spans.append(record)
        if nested:
            self._stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            if nested:
                self._stack.pop()

    def self_times(self) -> List[float]:
        """Self time of every span, indexed by span id."""
        children: Dict[int, List[dict]] = {}
        for record in self.spans:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(record)
        out = []
        for record in self.spans:
            covered = 0.0
            cursor = record["start"]
            for child in sorted(children.get(record["id"], ()), key=lambda c: c["start"]):
                lo = max(child["start"], cursor)
                hi = min(child["end"], record["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(record["end"] - record["start"] - covered)
        return out

    def self_time_medians(self, root: str) -> Dict[str, float]:
        """Median self time per span name, over the spans that descend
        from a span named ``root``."""
        selfs = self.self_times()
        grouped: Dict[str, List[float]] = {}
        for record in self.spans:
            ancestor = record["parent"]
            while ancestor is not None and self.spans[ancestor]["name"] != root:
                ancestor = self.spans[ancestor]["parent"]
            if ancestor is not None:
                grouped.setdefault(record["name"], []).append(selfs[record["id"]])
        return {name: median(values) for name, values in grouped.items()}

    @staticmethod
    def cost_per_span(samples: int = 5000) -> float:
        """Seconds of bookkeeping one span adds, timed on a scratch
        recorder (the traced run's overhead is this times its spans)."""
        scratch = SpanRecorder()
        with scratch.span("root") as root:
            began = perf_counter()
            for _ in range(samples):
                with scratch.span("probe", request="r", parent=root["id"]):
                    pass
            return (perf_counter() - began) / samples

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


class NullRecorder:
    active = False

    def span(self, name: str, request: Optional[str] = None, parent: Optional[int] = None):
        return nullcontext()

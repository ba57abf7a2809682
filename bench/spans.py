"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start and end on the
``perf_counter`` clock, the index of the enclosing span and the id of the
pair it served.  Spans are kept in a list and written out once, at the end of
the run, so recording costs one list append per call.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pair: int
    ok: bool


class Tracer:
    """Records nested spans; ``span`` opens one, ``call`` wraps one call in one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, pair: int):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, pair, False)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
            record.ok = True
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, pair: int, fn, *args):
        with self.span(name, pair):
            return fn(*args)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def layer_summary(self, names) -> dict[str, dict]:
        """Self time, per-call median, calls and failures for each named layer."""
        own = self.self_times()
        by_name: dict[str, list[int]] = {name: [] for name in names}
        for k, s in enumerate(self.spans):
            if s.name in by_name:
                by_name[s.name].append(k)
        summary = {}
        for name, idx in by_name.items():
            durations = [self.spans[k].end - self.spans[k].start for k in idx]
            summary[name] = {
                "self_s": sum(own[k] for k in idx),
                "call_s_p50": statistics.median(durations) if durations else 0.0,
                "calls": len(idx),
                "failures": sum(not self.spans[k].ok for k in idx),
            }
        return summary

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s)) + "\n")

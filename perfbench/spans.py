"""Spans recorded by the benchmark around its own calls into the library.

A span is (name, start, end, parent).  Spans stay in memory until the run
ends; ``self_times`` then charges each span its duration minus the time its
children cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

_UNTRACED = contextlib.nullcontext()


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total duration of the spans with this name."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time covered by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), secs in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + secs
        return totals

    def write(self, path: Path, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            **extra,
            "spans": [
                {"id": i, "name": n, "start_s": s - t0, "end_s": e - t0,
                 "parent": par, "workload": self.workload}
                for i, (n, s, e, par) in enumerate(self.spans)
            ],
            "self_s": self.self_times(),
        }
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def span_cost_s(batch: int = 1000, batches: int = 15) -> float:
    """Seconds one empty span costs: the median batch of ``batch`` spans on a
    throwaway tracer, per span."""
    times = []
    for _ in range(batches):
        tr = Tracer("cost")
        t0 = time.perf_counter()
        for _ in range(batch):
            with tr.span("empty"):
                pass
        times.append(time.perf_counter() - t0)
    return sorted(times)[batches // 2] / batch


def span_of(tracer: Tracer | None):
    """``tracer.span``, or a function giving a no-op context when untraced."""
    return tracer.span if tracer is not None else (lambda name: _UNTRACED)

"""In-memory spans for the traced benchmark run.

Each span records a name, its start and end (``time.perf_counter``), the
index of the span that encloses it and the id of the pass it belongs to.
Counts recorded at the same boundaries sit beside the spans, keyed by pass.
Nothing is written until the run ends and calls ``write``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.pass_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, self.pass_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(self.pass_id, {})[name] = value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per pass and span name, the summed duration minus the time
        covered by direct child spans."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[int, dict[str, float]] = {}
        for s, child_time in zip(self.spans, covered):
            per_pass = out.setdefault(s.pass_id, {})
            per_pass[s.name] = per_pass.get(s.name, 0.0) + (s.end - s.start) - child_time
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": {str(k): v for k, v in self.counts.items()}},
                      fh)

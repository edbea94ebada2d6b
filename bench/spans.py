"""In-memory span recorder for the traced run.

A span is (name, operation id, parent span, start, end).  Spans are kept
in flat typed arrays while the run goes on and written out once, at the
end, as gzip-compressed CSV.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.op = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}

    def begin(self, name: str, op: int, parent: int = -1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.op.append(op)
        self.parent.append(parent)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return len(self.start) - 1

    def finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()

    @contextmanager
    def span(self, name: str, op: int, parent: int = -1):
        idx = self.begin(name, op, parent)
        try:
            yield idx
        finally:
            self.finish(idx)

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [e - s for i, s, e in zip(self.name_id, self.start, self.end) if i == nid]

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def write(self, path: str) -> None:
        t0 = min(self.start) if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,op,parent,start_s,end_s\n")
            for nid, op, parent, s, e in zip(self.name_id, self.op, self.parent, self.start, self.end):
                fh.write(f"{self.names[nid]},{op},{parent},{s - t0:.9f},{e - t0:.9f}\n")

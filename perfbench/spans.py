"""Spans for traced benchmark runs: recording inside the program, and self time.

A ``Recorder`` lives inside a logicad process.  The wrappers that
``probes.install`` puts around logicad functions open a span before the
call and close it after.  Spans stay in flat arrays in memory and are
written to ``<trace_dir>/spans-<pid>.npz`` once the command has returned.

A span is (name, start, end, parent).  Self time is a span's duration minus
the part of its interval that the union of its children covers, so children
that overlap in time are not subtracted twice.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


class Recorder:
    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def flush(self) -> None:
        """Write every span and count of this process."""
        import numpy as np

        self.trace_dir.mkdir(parents=True, exist_ok=True)
        meta = {"names": self.names, "counters": dict(self.counters)}
        np.savez(
            self.trace_dir / f"spans-{os.getpid()}.npz",
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: tuple[int, int] | None  # (file, index) key of the parent span


def load(trace_dir) -> tuple[dict[tuple[int, int], Span], dict[str, float]]:
    """Every span written under ``trace_dir``, keyed by (file, index), and the summed counters."""
    import numpy as np

    spans: dict[tuple[int, int], Span] = {}
    counters: dict[str, float] = defaultdict(float)
    for file, path in enumerate(sorted(Path(trace_dir).glob("spans-*.npz"))):
        with np.load(path) as data:
            meta = json.loads(data["meta"].tobytes().decode("utf-8"))
            columns = [data[k].tolist() for k in ("name", "parent", "start", "end")]
        names = meta["names"]
        for i, (nid, parent, start, end) in enumerate(zip(*columns)):
            spans[(file, i)] = Span(names[nid], start, end,
                                    (file, parent) if parent >= 0 else None)
        for key, value in meta["counters"].items():
            counters[key] += value
    return spans, dict(counters)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0  # summed over spans with no same-name ancestor
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)  # of the spans in total_s


def summarize(spans: dict[tuple[int, int], Span]) -> dict[str, Totals]:
    """Calls, total time and self time per span name."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for span in spans.values():
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))

    ancestors: dict[tuple[int, int], frozenset] = {}
    shared: dict[tuple[frozenset, str], frozenset] = {}

    def names_above(key) -> frozenset:
        found = ancestors.get(key)
        if found is None:
            parent = spans[key].parent
            if parent is None or parent not in spans:
                found = frozenset()
            else:
                above, name = names_above(parent), spans[parent].name
                found = shared.setdefault((above, name), above | {name})
            ancestors[key] = found
        return found

    out: dict[str, Totals] = defaultdict(Totals)
    for key, span in spans.items():
        totals = out[span.name]
        duration = span.end - span.start
        totals.calls += 1
        totals.self_s += duration - covered(children.get(key, ()), span.start, span.end)
        if span.name not in names_above(key):
            totals.total_s += duration
            totals.durations.append(duration)
    return dict(out)


def tail_percentile(values, beyond: int = 10):
    """(percentile, value) of the highest percentile with at least ``beyond``
    samples strictly above it, or None when that is below the median."""
    ordered = sorted(values)
    n = len(ordered)
    for index in range(n - beyond - 1, -1, -1):
        if n - bisect_right(ordered, ordered[index]) >= beyond:
            percentile = 100.0 * (index + 1) / n
            return (percentile, ordered[index]) if percentile >= 50.0 else None
    return None

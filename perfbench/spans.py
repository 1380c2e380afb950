"""In-memory spans around the benchmark's calls into mclab, and self-time arithmetic.

A span records a name, start, end, the span that caused it and a trial or graph
id. A child either runs inside its parent's interval (nested) or is a replay:
the same public call made again on a freshly built input after the parent
returned, because the benchmark cannot put spans inside mclab. A span's self
time is its duration minus the part of its interval that nested children cover,
minus the full duration of its replayed children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional


@dataclass
class Span:
    sid: int
    name: str
    ident: str
    parent: Optional[int]
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`write` saves them once the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, ident: str, parent: Optional[Span] = None) -> Iterator[Span]:
        span = Span(len(self.spans), name, ident, None if parent is None else parent.sid,
                    time.perf_counter())
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of [start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        nested = []
        replayed = 0.0
        for child in children[span.sid]:
            if span.start <= child.start and child.end <= span.end:
                nested.append((child.start, child.end))
            else:
                replayed += child.duration
        out[span.sid] = span.duration - covered_length(nested) - replayed
    return out


def totals(spans: list[Span]) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float]]:
    """Summed duration and summed self time per (name, group).

    The group is the part of a span's id before the first ``/``: the row of a
    sweep trial ``"row/trial"``, or the graph name.
    """
    selfs = self_times(spans)
    duration: dict[tuple[str, str], float] = defaultdict(float)
    self_total: dict[tuple[str, str], float] = defaultdict(float)
    for span in spans:
        key = (span.name, span.ident.split("/", 1)[0])
        duration[key] += span.duration
        self_total[key] += selfs[span.sid]
    return duration, self_total

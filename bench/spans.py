"""Benchmark-owned spans around calls into each layer.

Spans are recorded from this package only (the program is not edited),
kept in memory, and written as JSON lines when the pass ends.  Each span
has a name ``<layer>.<call>``, start and end (``time.perf_counter()``
seconds), an id, the id of the span that caused it (0 for a root) and
the request's index in the workload's list (-1 when it is not about one
request).  A layer metric and its span are the same two clock reads.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

FIELDS = ("id", "parent", "request", "name", "start", "end")


class SpanLog:
    """In-memory span list."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def add(
        self, name: str, start: float, end: float,
        parent: int = 0, request: int = -1,
    ) -> int:
        span_id = len(self.rows) + 1
        self.rows.append((span_id, parent, request, name, start, end))
        return span_id

    @contextmanager
    def span(self, name: str, parent: int = 0) -> Iterator[int]:
        """A span around a block; yields the id children should name.

        The row is reserved on entry so the parent's id is lower than
        its children's, and completed on exit.
        """
        start = time.perf_counter()
        span_id = self.add(name, start, start, parent)
        try:
            yield span_id
        finally:
            self.rows[span_id - 1] = (
                span_id, parent, -1, name, start, time.perf_counter()
            )

    def durations(self, name: str) -> list[float]:
        return [r[5] - r[4] for r in self.rows if r[3] == name]

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(dict(zip(FIELDS, row))) + "\n")


def load(path: pathlib.Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the part of the
    interval its child spans cover (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[span["parent"]].append((span["start"], span["end"]))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        totals[span["name"]] += span["end"] - span["start"] - covered
    return dict(totals)

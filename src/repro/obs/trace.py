"""Request tracing: spans, head sampling, Chrome trace-event export.

A :class:`Trace` follows one request through the serving stack and
collects **spans** — named, timestamped intervals (admission → queue →
coalesce/commit-wait → execute, with the engine's execution and per-shard
fan-out nested inside) — plus instant events and an exact I/O ledger
(:class:`~repro.obs.tap.IOTap`) attributed by the storage layers at
each counted I/O.  Spans partition the request's end-to-end latency,
so "where did the time go" is answerable per request, not per batch.

Propagation is by :mod:`contextvars`: the server activates a request's
trace (and its tap) around that request's execution, so
:func:`current_trace` works from the engines and the page/file stores
without any layer passing the trace explicitly.

Sampling follows two rules (``docs/observability.md``):

* **Head sampling** — :class:`Tracer` keeps every trace with
  probability ``sample_rate`` (decided at begin, deterministic under a
  seed).
* **Always-trace-if-over-threshold** — a trace that head sampling
  dropped is still *recorded* while tracing is enabled, and is emitted
  anyway when its end-to-end duration reaches ``slow_threshold_s``:
  the tail is never sampled away.  With no tracer installed the whole
  machinery is a no-op (one ``None`` check per layer).

Emitted traces are written by :class:`TraceWriter` in the Chrome
trace-event JSON format — one event per line, a valid JSON array once
closed — which Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``
load directly.  ``repro status --trace`` produces such a file from a
fixed batch; :func:`load_trace_events` / :func:`check_span_nesting` are
the programmatic readers the CI smoke uses.
"""

from __future__ import annotations

import json
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.tap import IOTap

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "TraceWriter",
    "current_trace",
    "activate_trace",
    "load_trace_events",
    "check_span_nesting",
]

#: The active trace of the current context (None: not tracing).
_TRACE: ContextVar["Trace | None"] = ContextVar("repro-trace", default=None)


def current_trace() -> "Trace | None":
    """The trace the current context executes on behalf of, if any."""
    return _TRACE.get()


@contextmanager
def activate_trace(trace: "Trace | None") -> Iterator["Trace | None"]:
    """Make ``trace`` current for the ``with`` body.

    The server calls it around a request's execution — one batch holds
    many traces, each current only while its request runs — so deeper
    layers (the sharded fan-out, the slow log) reach the trace via
    :func:`current_trace`.  I/O attribution is separate — open a
    :func:`~repro.obs.tap.scoped_tap` with the trace, and the scope's
    totals fold into ``trace.io`` (under its lock) on exit; the trace's
    ledger is never installed as a shared mutable tap across threads.
    """
    if trace is None:
        yield None
        return
    token = _TRACE.set(trace)
    try:
        yield trace
    finally:
        _TRACE.reset(token)


@dataclass
class Span:
    """One named interval inside a trace (seconds, ``perf_counter``).

    ``track`` selects the trace's sub-row in the export: track 0 is the
    request's main timeline (whose spans must nest), while concurrent
    work — the sharded fan-out running shards in parallel — goes on
    per-shard tracks so simultaneous spans never share a row.
    """

    name: str
    cat: str
    start_s: float
    end_s: float
    args: dict[str, Any] = field(default_factory=dict)
    track: int = 0

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


class Trace:
    """One request's spans, events, and exact I/O ledger.

    Created by :meth:`Tracer.begin`; layers add spans/events while the
    trace is active; :meth:`Tracer.finish` closes it and decides
    emission.  ``io`` is the trace's :class:`~repro.obs.tap.IOTap` —
    the storage layers increment it adjacent to the shared counters, so
    its totals are exactly this request's slice of
    :class:`~repro.iomodel.counters.IOCounters` /
    :class:`~repro.storage.paged.PageCacheStats`.
    """

    __slots__ = (
        "trace_id",
        "name",
        "kind",
        "sampled",
        "slow",
        "start_s",
        "end_s",
        "spans",
        "events",
        "io",
        "args",
    )

    def __init__(
        self,
        trace_id: int,
        name: str,
        kind: str,
        sampled: bool,
        start_s: float | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.name = name
        self.kind = kind
        self.sampled = sampled
        self.slow = False
        self.start_s = time.perf_counter() if start_s is None else start_s
        self.end_s: float | None = None
        self.spans: list[Span] = []
        self.events: list[tuple[str, float, dict]] = []
        self.io = IOTap(trace=None)
        self.io.trace = self  # type: ignore[assignment]
        self.args: dict[str, Any] = {}

    @property
    def duration_s(self) -> float:
        """Seconds from begin to finish (0.0 while still open)."""
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        cat: str = "service",
        track: int = 0,
        **args: Any,
    ) -> Span:
        """Record a span from explicit timestamps (list append: safe to
        call from any thread under CPython)."""
        span = Span(name, cat, start_s, end_s, dict(args), track)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, cat: str = "engine", **args: Any) -> Iterator[Span]:
        """Time the ``with`` body as a span."""
        start = time.perf_counter()
        span = Span(name, cat, start, start, dict(args))
        try:
            yield span
        finally:
            span.end_s = time.perf_counter()
            self.spans.append(span)

    def event(self, name: str, **args: Any) -> None:
        """Record an instant event at the current time."""
        self.events.append((name, time.perf_counter(), dict(args)))

    def __repr__(self) -> str:
        return (
            f"Trace(#{self.trace_id} {self.name!r}, kind={self.kind}, "
            f"spans={len(self.spans)}, io={self.io!r})"
        )


class Tracer:
    """Begin/finish traces, apply the sampling rules, count outcomes.

    Parameters
    ----------
    writer:
        Destination for emitted traces (None: traces are still built
        and finished — useful in tests via ``keep_finished``).
    sample_rate:
        Head-sampling probability in [0, 1]; 1.0 traces everything.
    slow_threshold_s:
        When set, a head-dropped trace is still emitted if its
        end-to-end duration reaches this bound (and every emitted trace
        at least this slow is flagged ``slow``).
    seed:
        Makes the head-sampling coin reproducible.
    keep_finished:
        Retain emitted traces on ``tracer.finished`` (tests and
        summaries; unbounded — not for long services).
    """

    def __init__(
        self,
        writer: "TraceWriter | None" = None,
        sample_rate: float = 1.0,
        slow_threshold_s: float | None = None,
        seed: int = 0,
        keep_finished: bool = False,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if slow_threshold_s is not None and slow_threshold_s < 0:
            raise ValueError("slow_threshold_s must be >= 0")
        self.writer = writer
        self.sample_rate = sample_rate
        self.slow_threshold_s = slow_threshold_s
        self.epoch_s = time.perf_counter()
        self.started = 0
        self.emitted = 0
        self.slow = 0
        self.finished: list[Trace] = []
        self._keep = keep_finished
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def begin(
        self, name: str, kind: str = "?", start_s: float | None = None
    ) -> Trace | None:
        """Start a trace, or return None when sampling drops it outright.

        A trace is built whenever it has *any* chance of emission: head
        sampling hit, or a slow threshold is armed (the trace may yet
        earn emission by being slow).
        """
        with self._lock:
            sampled = (
                self.sample_rate >= 1.0
                or self._rng.random() < self.sample_rate
            )
            if not sampled and self.slow_threshold_s is None:
                return None
            self.started += 1
            trace_id = self.started
        return Trace(trace_id, name, kind, sampled, start_s=start_s)

    def finish(self, trace: Trace | None, end_s: float | None = None) -> bool:
        """Close a trace and emit it if the sampling rules say so.

        Returns True when the trace was emitted.  Safe to call with
        ``None`` (a begin that was dropped).
        """
        if trace is None:
            return False
        trace.end_s = time.perf_counter() if end_s is None else end_s
        threshold = self.slow_threshold_s
        trace.slow = threshold is not None and trace.duration_s >= threshold
        emit = trace.sampled or trace.slow
        with self._lock:
            if trace.slow:
                self.slow += 1
            if not emit:
                return False
            self.emitted += 1
            if self._keep:
                self.finished.append(trace)
        if self.writer is not None:
            self.writer.emit(trace, epoch_s=self.epoch_s)
        return True

    def __repr__(self) -> str:
        return (
            f"Tracer(started={self.started}, emitted={self.emitted}, "
            f"slow={self.slow}, sample_rate={self.sample_rate})"
        )


class TraceWriter:
    """Chrome trace-event JSON writer, one event per line.

    The output is the "JSON Array Format": a ``[`` line, one event
    object per line, and a closing ``]`` written by :meth:`close` — a
    valid JSON document that Perfetto and ``chrome://tracing`` load
    as-is (the format also tolerates a missing close bracket, so a
    crashed run's file still loads).  Each trace gets its own ``tid``
    row named after the request, so concurrent requests render as
    parallel tracks; ``pid`` is always 1.  Thread-safe.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write("[\n")
        self._first = True
        self._closed = False
        self._lock = threading.Lock()
        self._next_tid = 1
        self.events_written = 0
        self.traces_written = 0

    # -- emission ------------------------------------------------------

    def _write_event(self, event: dict) -> None:
        if self._first:
            self._first = False
        else:
            self._fh.write(",\n")
        self._fh.write(json.dumps(event, separators=(",", ":"), default=str))
        self.events_written += 1

    @staticmethod
    def _ts(seconds: float, epoch_s: float) -> float:
        return round((seconds - epoch_s) * 1e6, 3)

    def emit(self, trace: Trace, epoch_s: float) -> None:
        """Write one finished trace's events.

        Each distinct span track gets its own ``tid`` row (allocated
        writer-wide, so rows are unique across traces): track 0 is the
        request's main timeline, other tracks carry concurrent work
        such as parallel shard fan-out spans.
        """
        spans = sorted(trace.spans, key=lambda s: (s.track, s.start_s))
        tracks = sorted({0} | {s.track for s in spans})
        end_s = trace.end_s if trace.end_s is not None else trace.start_s
        with self._lock:
            if self._closed:
                return
            tids = {}
            for track in tracks:
                tids[track] = self._next_tid
                self._next_tid += 1
            label = f"{trace.name}#{trace.trace_id}"
            for track in tracks:
                self._write_event(
                    {
                        "ph": "M",
                        "pid": 1,
                        "tid": tids[track],
                        "name": "thread_name",
                        "args": {
                            "name": label
                            if track == 0
                            else f"{label}/track{track}"
                        },
                    }
                )
            # The whole-request span every main-track span nests inside.
            self._write_event(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": tids[0],
                    "name": f"request:{trace.kind}",
                    "cat": "request",
                    "ts": self._ts(trace.start_s, epoch_s),
                    "dur": round((end_s - trace.start_s) * 1e6, 3),
                    "args": {
                        "trace_id": trace.trace_id,
                        "sampled": trace.sampled,
                        "slow": trace.slow,
                        "io": trace.io.snapshot(),
                        **trace.args,
                    },
                }
            )
            for span in spans:
                self._write_event(
                    {
                        "ph": "X",
                        "pid": 1,
                        "tid": tids[span.track],
                        "name": span.name,
                        "cat": span.cat,
                        "ts": self._ts(span.start_s, epoch_s),
                        "dur": round(span.duration_s * 1e6, 3),
                        "args": span.args,
                    }
                )
            for name, at_s, args in trace.events:
                self._write_event(
                    {
                        "ph": "i",
                        "s": "t",
                        "pid": 1,
                        "tid": tids[0],
                        "name": name,
                        "cat": "event",
                        "ts": self._ts(at_s, epoch_s),
                        "args": args,
                    }
                )
            self.traces_written += 1

    def close(self) -> None:
        """Finalize the JSON array and close the file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._fh.write("\n]\n")
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_trace_events(path) -> list[dict]:
    """Load a :class:`TraceWriter` file back into a list of event dicts.

    Accepts both a finalized file (valid JSON array) and a truncated
    one (missing close bracket, e.g. from a crashed run) — the same
    tolerance Chrome's own loader has.
    """
    text = open(path, "r", encoding="utf-8").read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.rstrip().rstrip(",") + "\n]")


def check_span_nesting(events: list[dict]) -> list[str]:
    """Verify the duration events of each (pid, tid) row nest properly.

    Two spans on one row must either be disjoint or one must contain
    the other — partial overlap means broken timestamps.  Returns one
    message per violation (empty: all good).  Instant and metadata
    events are ignored.  Spans sort parent-first at equal starts, and a
    2 ns tolerance absorbs the float dust of the microsecond rounding
    in the export (adjacent spans share a boundary timestamp).
    """
    eps = 2e-3  # microseconds
    rows: dict[tuple, list[tuple[float, float, str]]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        key = (event.get("pid"), event.get("tid"))
        start = float(event["ts"])
        rows.setdefault(key, []).append(
            (start, start + float(event.get("dur", 0)), event.get("name", "?"))
        )
    errors = []
    for key, spans in rows.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        open_stack: list[tuple[float, float, str]] = []
        for start, end, name in spans:
            while open_stack and open_stack[-1][1] <= start + eps:
                open_stack.pop()
            if open_stack and end > open_stack[-1][1] + eps:
                errors.append(
                    f"tid {key[1]}: span {name!r} [{start}, {end}] "
                    f"partially overlaps {open_stack[-1][2]!r} "
                    f"[{open_stack[-1][0]}, {open_stack[-1][1]}]"
                )
                continue
            open_stack.append((start, end, name))
    return errors

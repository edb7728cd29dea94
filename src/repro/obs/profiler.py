"""Span-attributed wall-clock sampling profiler (pure stdlib).

Traces answer *where the time went* per request; the profiler answers
*where the CPU goes* across the whole process.  A background thread
wakes every ``interval_s`` seconds, snapshots every Python thread's
stack via :func:`sys._current_frames`, and attributes each sample to
the **phase** the sampled thread is executing — the same vocabulary the
trace spans use (``execute``, ``engine:<kind>``, ``write:<kind>``,
``shard:<i>``), pushed/popped by the serving layers through the
:func:`phase` context manager.  A flamegraph of the output therefore
splits by serving phase first and Python frames below, so "the
per-entry ``Rect`` loop dominates ``engine:window``" is a readable
fact, not an inference.

Two exports:

* **Collapsed stacks** (:meth:`SamplingProfiler.collapsed`) — the
  ``root;frame;frame count`` text format that ``flamegraph.pl`` and
  https://www.speedscope.app load directly; the phase is the root
  frame.
* **Per-phase self time** (:meth:`SamplingProfiler.phase_table`) — for
  every phase, its sample count and estimated seconds (samples x the
  measured tick length).  Samples of threads with no active phase
  attribute to ``(other)``, so the table always sums to the total
  sampled wall time — nothing is silently dropped.

The phase registry is a plain dict keyed by thread id holding each
thread's phase *stack* (phases nest: ``execute`` > ``engine:window`` >
``shard:2``); a sample attributes to the top of the stack.  When no
profiler is running, :func:`phase` costs one integer check, so the
instrumentation stays in the serving hot path.

Sampling caveats, documented rather than hidden: this is a *wall
clock* profiler — a thread blocked in a lock or a file read is sampled
exactly like one spinning in a loop (which is what you want for "where
does the latency go"; the GIL serializes the CPU-bound subset anyway).
Reading another thread's stack without stopping the world means a
sample may straddle a call boundary; with thousands of samples the
straddles are noise.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, TextIO

__all__ = [
    "SamplingProfiler",
    "PhaseSelfTime",
    "PHASE_VOCABULARY",
    "phase",
    "push_phase",
    "pop_phase",
    "current_phase",
    "profiling_active",
]

#: The phase vocabulary: every prefix the serving and query layers push,
#: so profiler phase tables and trace span notes share one namespace.
#:
#: * ``execute`` — one coalesced batch executing on the server.
#: * ``engine:<kind>`` — a query engine running one request
#:   (``engine:window``, ``engine:knn``, ...).
#: * ``write:<kind>`` — a mutating request (``write:insert``, ...).
#: * ``shard:<i>`` — work attributed to one shard of a sharded store.
#: * ``kernel:<op>`` — a vectorized geometry kernel evaluating a whole
#:   node frame (``kernel:frame_intersecting``, ``kernel:batch_intersecting``,
#:   ...); pushed by :mod:`repro.geometry.kernels` so kernel CPU shows
#:   up as its own rows under the enclosing ``engine:*`` phase.
PHASE_VOCABULARY = (
    "execute",
    "engine:*",
    "write:*",
    "shard:*",
    "kernel:*",
)

#: Thread id -> that thread's phase stack (top = innermost phase).
#: Mutated only by the owning thread; read by the sampler.  Under
#: CPython, list append/pop and dict assignment are atomic, so the
#: sampler sees either the pre- or post-update stack — never garbage.
_PHASE_STACKS: dict[int, list[str]] = {}

#: Number of running profilers.  ``phase`` is a no-op at 0, so the
#: serving layers can annotate unconditionally.
_ACTIVE = 0
_ACTIVE_LOCK = threading.Lock()

#: Phase charged for samples of threads with no phase on their stack.
OTHER = "(other)"


def profiling_active() -> bool:
    """True while at least one :class:`SamplingProfiler` is running."""
    return _ACTIVE > 0


def current_phase() -> str | None:
    """The calling thread's innermost active phase, if any."""
    stack = _PHASE_STACKS.get(threading.get_ident())
    return stack[-1] if stack else None


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Attribute the ``with`` body's samples to ``name``.

    Phases nest; samples go to the innermost one.  Free (one integer
    check) when no profiler is running — annotate hot paths without
    guarding the call site.
    """
    if not _ACTIVE:
        yield
        return
    ident = threading.get_ident()
    stack = _PHASE_STACKS.get(ident)
    if stack is None:
        stack = _PHASE_STACKS[ident] = []
    stack.append(name)
    try:
        yield
    finally:
        if stack and stack[-1] == name:
            stack.pop()
        elif name in stack:  # pragma: no cover - unbalanced exit guard
            stack.remove(name)


def push_phase(name: str) -> bool:
    """Non-contextmanager :func:`phase` entry for per-call hot paths.

    The vectorized kernels run thousands of times per request;
    generator-based context managers are too heavy there.  Returns True
    when a phase was actually pushed — callers pop only then::

        pushed = push_phase("kernel:frame_intersecting")
        try:
            ...
        finally:
            if pushed:
                pop_phase()

    Costs one integer check when no profiler is running.
    """
    if not _ACTIVE:
        return False
    ident = threading.get_ident()
    stack = _PHASE_STACKS.get(ident)
    if stack is None:
        stack = _PHASE_STACKS[ident] = []
    stack.append(name)
    return True


def pop_phase() -> None:
    """Pop the innermost phase pushed by :func:`push_phase`."""
    stack = _PHASE_STACKS.get(threading.get_ident())
    if stack:
        stack.pop()


@contextmanager
def force_phases() -> Iterator[None]:
    """Enable phase tracking without a running profiler (tests only)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE += 1
    try:
        yield
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE -= 1


class PhaseSelfTime:
    """One phase's share of the sampled wall time."""

    __slots__ = ("phase", "samples", "seconds", "fraction")

    def __init__(
        self, phase_name: str, samples: int, seconds: float, fraction: float
    ) -> None:
        self.phase = phase_name
        self.samples = samples
        self.seconds = seconds
        self.fraction = fraction

    def __repr__(self) -> str:
        return (
            f"PhaseSelfTime({self.phase!r}, samples={self.samples}, "
            f"seconds={self.seconds:.3f}, {self.fraction:.1%})"
        )


class SamplingProfiler:
    """Background sampling profiler with phase attribution.

    Parameters
    ----------
    interval_s:
        Target seconds between stack snapshots (default 5 ms — ~200
        samples a second across all threads).
    max_depth:
        Frames kept per stack, innermost outward.
    include_idle:
        Sample threads that currently have **no** active phase (the
        asyncio event loop parked in ``select``, the main thread
        waiting on a future).  Default False: the profile then contains
        exactly the serving work, and the ``(other)`` row is work that
        escaped phase annotation rather than idle wait.

    Use as a context manager or call :meth:`start`/:meth:`stop`.  The
    same instance can profile several runs back to back; samples
    accumulate until :meth:`reset`.
    """

    def __init__(
        self,
        interval_s: float = 0.005,
        max_depth: int = 64,
        include_idle: bool = False,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.interval_s = interval_s
        self.max_depth = max_depth
        self.include_idle = include_idle
        #: (phase, stack root->leaf) -> sample count.
        self.samples: Counter[tuple[str, tuple[str, ...]]] = Counter()
        self.ticks = 0
        self.elapsed_s = 0.0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the sampler thread (idempotent)."""
        global _ACTIVE
        if self._thread is not None:
            return
        with _ACTIVE_LOCK:
            _ACTIVE += 1
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and fold the elapsed window in (idempotent)."""
        global _ACTIVE
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        self.elapsed_s += time.perf_counter() - self._started_at
        with _ACTIVE_LOCK:
            _ACTIVE -= 1

    def reset(self) -> None:
        """Drop accumulated samples (keep configuration)."""
        self.samples.clear()
        self.ticks = 0
        self.elapsed_s = 0.0

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample(own)

    def _sample(self, own: int) -> None:
        frames = sys._current_frames()
        self.ticks += 1
        for ident, frame in frames.items():
            if ident == own:
                continue
            stack = _PHASE_STACKS.get(ident)
            phase_name = stack[-1] if stack else None
            if phase_name is None:
                if not self.include_idle:
                    continue
                phase_name = OTHER
            self.samples[(phase_name, self._stack_of(frame))] += 1

    def _stack_of(self, frame) -> tuple[str, ...]:
        parts: list[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            parts.append(
                f"{os.path.basename(code.co_filename)}:{code.co_name}"
            )
            frame = frame.f_back
            depth += 1
        parts.reverse()  # root first, the collapsed-stack convention
        return tuple(parts)

    # -- reporting -----------------------------------------------------

    @property
    def total_samples(self) -> int:
        """Thread-stack samples recorded (one per thread per tick)."""
        return sum(self.samples.values())

    @property
    def seconds_per_sample(self) -> float:
        """Measured wall seconds one sample represents.

        The sampler's real period (GC pauses, scheduler jitter) rather
        than the requested ``interval_s``, so phase seconds sum to the
        measured window even when the machine is loaded.
        """
        if not self.ticks:
            return self.interval_s
        elapsed = self.elapsed_s
        if self._thread is not None:  # still running
            elapsed += time.perf_counter() - self._started_at
        return elapsed / self.ticks if elapsed > 0 else self.interval_s

    def phase_table(self) -> list[PhaseSelfTime]:
        """Per-phase self time, largest first.

        Self time: samples whose *innermost* phase is this one (a
        sample inside ``shard:0`` does not also count for the enclosing
        ``execute``).  Including ``(other)``, the rows sum to the total
        sampled wall time by construction.
        """
        per_phase: Counter[str] = Counter()
        for (phase_name, _), count in self.samples.items():
            per_phase[phase_name] += count
        total = sum(per_phase.values())
        sec = self.seconds_per_sample
        return [
            PhaseSelfTime(name, n, n * sec, n / total if total else 0.0)
            for name, n in per_phase.most_common()
        ]

    def collapsed(self) -> str:
        """Collapsed-stack text: ``phase;frame;...;frame count`` lines.

        Loadable by ``flamegraph.pl`` and speedscope as-is.  The phase
        is the root frame, so the flamegraph's first split is by
        serving phase.
        """
        lines = []
        for (phase_name, stack), count in sorted(self.samples.items()):
            frames = ";".join((phase_name,) + stack)
            lines.append(f"{frames} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path_or_file: "str | os.PathLike | TextIO") -> None:
        """Write :meth:`collapsed` to a path or open file."""
        if hasattr(path_or_file, "write"):
            path_or_file.write(self.collapsed())
            return
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(self.collapsed())

    def __repr__(self) -> str:
        return (
            f"SamplingProfiler(interval={self.interval_s * 1000:g}ms, "
            f"ticks={self.ticks}, samples={self.total_samples}, "
            f"running={self._thread is not None})"
        )

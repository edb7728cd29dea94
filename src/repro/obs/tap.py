"""Context-local I/O attribution taps.

The stores already keep the ground-truth accounting: one
:class:`~repro.iomodel.counters.IOCounters` increment per logical
``read``/``write``/``allocate`` and one
:class:`~repro.storage.paged.PageCacheStats` increment per physical
page event (hit/miss/eviction/flush).  What they cannot say is *on
whose behalf* an I/O happened — concurrent batches on shared paged
handles read one shared counter, so a delta taken around a batch bleeds
every other in-flight batch's traffic into it.

An :class:`IOTap` fixes attribution at the source instead of the
boundary: the active tap lives in a :mod:`contextvars` context
variable, and every store bumps it *adjacent to* the matching
``IOCounters`` / ``PageCacheStats`` increment — same call site, same
lock scope — so a tap's totals are exactly the slice of the shared
counters that this context caused.  Nothing is re-measured and nothing
is re-counted: summing every tap plus the untapped remainder always
reproduces the shared counters byte-for-byte
(``docs/io-accounting.md``).

Concurrency discipline: a tap's increments are plain integer adds and
are **not** thread-safe — each executing thread must own its tap.
Nothing in this package hops threads with a tap installed (batches
execute on the service's event loop, shards fan out serially); a
caller that does must carry its context across the hop with
``contextvars.copy_context()`` and open a fresh tap via
:func:`scoped_tap` on the far side (it folds into the parent, under
the parent's lock, on exit).

When no tap is installed the per-I/O cost is a single
``ContextVar.get`` returning ``None`` — the disabled path the
observability overhead benchmark (``benchmarks/results/obs_overhead``)
keeps honest.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.trace import Trace

__all__ = ["IOTap", "active_tap", "install_tap", "scoped_tap"]

#: The active attribution tap of the current context (None: no-op path).
_TAP: ContextVar["IOTap | None"] = ContextVar("repro-io-tap", default=None)


class IOTap:
    """One context's slice of the shared I/O accounting.

    ``reads``/``writes`` mirror the logical
    :class:`~repro.iomodel.counters.IOCounters` increments; ``hits`` /
    ``misses`` / ``evictions`` / ``flushes`` mirror the physical
    :class:`~repro.storage.paged.PageCacheStats` increments (misses are
    physical block reads, flushes physical block writes — the existing
    vocabulary).  ``trace`` optionally points at the
    :class:`~repro.obs.trace.Trace` this tap attributes for, so deep
    layers can reach the active trace through :func:`active_tap`.
    """

    __slots__ = (
        "reads",
        "writes",
        "hits",
        "misses",
        "evictions",
        "flushes",
        "trace",
        "_lock",
    )

    def __init__(self, trace: "Trace | None" = None) -> None:
        self.reads = 0
        self.writes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0
        self.trace = trace
        self._lock = threading.Lock()

    # -- physical aliases (io-accounting vocabulary) -------------------

    @property
    def physical_reads(self) -> int:
        """Blocks physically read (= page-cache misses)."""
        return self.misses

    @property
    def physical_writes(self) -> int:
        """Blocks physically written back (= dirty-page flushes)."""
        return self.flushes

    @property
    def logical_ios(self) -> int:
        """Total counted block transfers attributed to this context."""
        return self.reads + self.writes

    # -- folding -------------------------------------------------------

    def fold(self, child: "IOTap") -> None:
        """Add a finished child tap's totals into this tap.

        Locked: several child scopes (worker threads, shard fan-out
        tasks) may fold into one parent concurrently.  The child must be
        quiescent — its owning thread is done incrementing it.
        """
        with self._lock:
            self.reads += child.reads
            self.writes += child.writes
            self.hits += child.hits
            self.misses += child.misses
            self.evictions += child.evictions
            self.flushes += child.flushes

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy (trace args, metrics labels, tests)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "flushes": self.flushes,
        }

    def __repr__(self) -> str:
        return (
            f"IOTap(reads={self.reads}, writes={self.writes}, "
            f"misses={self.misses}, flushes={self.flushes})"
        )


def active_tap() -> IOTap | None:
    """The current context's tap (None when attribution is off).

    This is the store-side hook: called once per counted I/O and per
    page-cache event, immediately next to the shared-counter increment
    it attributes.
    """
    return _TAP.get()


@contextmanager
def install_tap(tap: IOTap | None) -> Iterator[IOTap | None]:
    """Make ``tap`` the context's active tap for the ``with`` body.

    Passing ``None`` suspends attribution (I/O inside the body belongs
    to nobody) — used to fence background work out of request taps.
    """
    token = _TAP.set(tap)
    try:
        yield tap
    finally:
        _TAP.reset(token)


@contextmanager
def scoped_tap(trace: "Trace | None" = None) -> Iterator[IOTap]:
    """A fresh tap for this scope, folded into the enclosing tap on exit.

    The nesting idiom — a request inside a batch, a shard inside a
    traced request (where the child's snapshot becomes the shard span's
    ``io=``; an untraced shard needs no tap of its own) — and the
    thread-hop one: a task that copied its context to
    another thread opens a scoped tap first thing on the far side,
    giving that thread a tap it exclusively owns, while the totals
    still roll up to the parent (batch, request trace) when the scope
    closes.
    """
    parent = _TAP.get()
    child = IOTap(trace=trace if trace is not None else (parent.trace if parent else None))
    token = _TAP.set(child)
    try:
        yield child
    finally:
        _TAP.reset(token)
        if parent is not None:
            parent.fold(child)
        if child.trace is not None and (parent is None or parent.trace is not child.trace):
            # The scope crossed into a trace (or ran without a parent):
            # credit the trace's own ledger directly.
            child.trace.io.fold(child)
